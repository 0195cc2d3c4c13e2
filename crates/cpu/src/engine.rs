//! The core execution engine: runs a slot stream against a memory device
//! and maintains the Spa counters.

use melody_mem::{MemRequest, MemoryDevice, RequestKind};
use melody_stats::LatencyHistogram;
use serde::{Deserialize, Serialize};

use crate::cache::Cache;
use crate::counters::{CounterSample, CounterSet};
use crate::fidelity::SamplingParams;
use crate::platform::Platform;
use crate::prefetch::{StreamPrefetcher, StridePrefetcher};

/// One unit of work in the instruction stream.
///
/// Compute blocks aggregate non-memory µops; loads and stores are
/// cacheline-granular memory operations. `dependent` loads serialize
/// behind their own completion (pointer chasing); independent loads
/// overlap up to the line-fill-buffer limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `uops` non-memory µops.
    Compute {
        /// Number of µops in the block.
        uops: u32,
    },
    /// A load from `addr`.
    Load {
        /// Byte address.
        addr: u64,
        /// Whether execution must wait for this load's data.
        dependent: bool,
    },
    /// A store to `addr`.
    Store {
        /// Byte address.
        addr: u64,
    },
}

/// Configuration of a core run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// The CPU platform.
    pub platform: Platform,
    /// Enable the L1/L2 hardware prefetchers.
    pub prefetchers: bool,
    /// Periodic counter-sample interval in ns (None = no sampling).
    pub sample_interval_ns: Option<u64>,
    /// Fraction of compute cycles additionally spent frontend-stalled
    /// (fetch/decode limited). Independent of memory latency.
    pub frontend_bound: f64,
    /// Average µops sustained per cycle by the workload's compute
    /// (1.0..=ipc_peak); controls compute time and port-util counters.
    pub ilp: f64,
    /// Fraction of compute cycles spent on serializing operations
    /// (scoreboard stalls, P9).
    pub serialize_frac: f64,
}

impl CoreConfig {
    /// Default configuration for a platform: prefetchers on, no sampling,
    /// moderately parallel compute.
    pub fn new(platform: Platform) -> Self {
        Self {
            platform,
            prefetchers: true,
            sample_interval_ns: None,
            frontend_bound: 0.0,
            ilp: 2.0,
            serialize_frac: 0.0,
        }
    }
}

/// Machine-check recovery time after consuming a poisoned line: the
/// firmware/OS handler logs the error, flushes the pipeline and resumes
/// the thread. Real MCE handling costs on the order of tens of
/// microseconds; 10 µs is the conservative end.
const MCE_RECOVERY_PS: u64 = 10_000_000;

/// Per-fabric-node demand-miss counter names, indexed by the device's
/// reported `AccessBreakdown::node` minus one.
const NODE_DEMAND: [&str; 8] = [
    "cpu.node1.demand",
    "cpu.node2.demand",
    "cpu.node3.demand",
    "cpu.node4.demand",
    "cpu.node5.demand",
    "cpu.node6.demand",
    "cpu.node7.demand",
    "cpu.node8.demand",
];

/// Timing constants hoisted out of the per-slot hot path.
///
/// `Platform` owns a `String` name, so cloning it inside `do_load` /
/// `do_compute` / the prefetcher hooks allocated on every slot. The
/// latencies are pre-multiplied by `cycle_ps` — the same integer
/// products the hot path computed before, so behaviour is
/// byte-identical.
#[derive(Debug, Clone, Copy)]
struct HotParams {
    ipc_peak: f64,
    l1_lat_ps: u64,
    l2_lat_ps: u64,
    l3_lat_ps: u64,
    l2pf_slots: usize,
    lfb_entries: usize,
    store_buffer_entries: usize,
}

impl HotParams {
    fn new(p: &Platform, cycle_ps: u64) -> Self {
        Self {
            ipc_peak: p.ipc_peak,
            l1_lat_ps: p.l1_lat_cy * cycle_ps,
            l2_lat_ps: p.l2_lat_cy * cycle_ps,
            l3_lat_ps: p.l3_lat_cy * cycle_ps,
            l2pf_slots: p.l2pf_slots,
            lfb_entries: p.lfb_entries,
            store_buffer_entries: p.store_buffer_entries,
        }
    }
}

/// How deep a load had to go; orders stall attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Depth {
    L1,
    L2,
    L3,
    Mem,
}

#[derive(Debug, Clone, Copy)]
struct LfbEntry {
    line: u64,
    ready_ps: u64,
    depth: Depth,
    /// True for L1-prefetch entries, false for demand misses.
    is_prefetch: bool,
}

/// Per-sample-window latency/bandwidth point (Figure 7 time series).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// Window end, ns of simulated time.
    pub time_ns: u64,
    /// Mean demand-load memory latency in the window, ns (0 if none).
    pub mean_lat_ns: f64,
    /// Max demand-load memory latency in the window, ns.
    pub max_lat_ns: u64,
    /// Device read traffic in the window, bytes.
    pub read_bytes: u64,
}

/// The result of running a slot stream on a [`Core`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Final cumulative counters.
    pub counters: CounterSet,
    /// Periodic counter samples (if sampling was enabled).
    pub samples: Vec<CounterSample>,
    /// Periodic latency/bandwidth points (if sampling was enabled).
    pub latency_series: Vec<LatencyPoint>,
    /// Histogram of demand-load *memory* latencies (ns).
    pub demand_lat_hist: LatencyHistogram,
    /// Histogram of *all* dependent-load observed latencies (ns),
    /// including cache hits and delayed hits — what a pointer-chase
    /// latency probe running on the CPU sees (Figure 6).
    pub dep_load_hist: LatencyHistogram,
    /// Total simulated wall time, ns.
    pub wall_ns: u64,
    /// Device traffic counters.
    pub device_stats: melody_mem::DeviceStats,
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.counters.cycles == 0 {
            0.0
        } else {
            self.counters.instructions as f64 / self.counters.cycles as f64
        }
    }

    /// Measured slowdown of `self` relative to a baseline run of the same
    /// stream: `cycles/base.cycles - 1` (the paper's `S`, as a fraction).
    pub fn slowdown_vs(&self, baseline: &RunResult) -> f64 {
        if baseline.counters.cycles == 0 {
            return 0.0;
        }
        self.counters.cycles as f64 / baseline.counters.cycles as f64 - 1.0
    }
}

/// A single simulated core driving a memory device.
pub struct Core {
    cfg: CoreConfig,
    device: Box<dyn MemoryDevice>,
    hot: HotParams,
    cycle_ps: u64,
    t_ps: u64,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    l1pf: StridePrefetcher,
    l2pf: StreamPrefetcher,
    /// L1-prefetch lines in flight: (line, ready_ps). Occupies LFB slots.
    pending_l1: Vec<(u64, u64)>,
    /// L2-prefetch lines in flight: (line, ready_ps).
    pending_l2: Vec<(u64, u64)>,
    /// Outstanding independent demand misses.
    lfb: Vec<LfbEntry>,
    /// Store-buffer entries: RFO/commit ready times.
    sb: Vec<u64>,
    counters: CounterSet,
    samples: Vec<CounterSample>,
    latency_series: Vec<LatencyPoint>,
    demand_lat_hist: LatencyHistogram,
    dep_load_hist: LatencyHistogram,
    next_sample_ps: u64,
    win_lat_sum_ps: u64,
    win_lat_max_ps: u64,
    win_lat_n: u64,
    win_read_bytes: u64,
    tick: u64,
    /// True while a sampled measurement window is open: demand-miss and
    /// dependent-load latencies are additionally captured for replay
    /// during fast-forward. Always false in detailed runs.
    capturing: bool,
    /// Demand-miss latencies (ns) observed in the open window.
    cap_demand_ns: Vec<u64>,
    /// Dependent-load latencies (ns) observed in the open window.
    cap_dep_ns: Vec<u64>,
    /// True when the device asked to observe every executed memory
    /// reference (tiering hot/cold trackers), not just cache misses.
    /// Cached once at construction so ordinary devices pay one branch.
    tap: bool,
}

/// Snapshot taken at the start of a sampled measurement window.
struct MeasureStart {
    t_ps: u64,
    counters: CounterSet,
    dev: melody_mem::DeviceStats,
}

/// Per-slot extrapolation rates from one measured window.
struct WindowRates {
    slots: u64,
    dt_ps: u64,
    /// Counter deltas over the window.
    dc: CounterSet,
    dev_reads: u64,
    dev_writes: u64,
    dev_read_lat_ps: u128,
    ras_correctable: u64,
    ras_uncorrectable: u64,
    ras_throttle_ps: u64,
    demand_ns: Vec<u64>,
    dep_ns: Vec<u64>,
}

/// Extrapolated device traffic accumulated across fast-forwarded
/// regions; folded into the *returned* [`melody_mem::DeviceStats`] at
/// the end of a sampled run (never into the live device, whose queues
/// saw no requests in the skipped spans).
#[derive(Default)]
struct FfAccum {
    reads: u64,
    writes: u64,
    read_lat_ps: u128,
    correctable: u64,
    uncorrectable: u64,
    throttle_ps: u64,
}

/// Replays window-observed latencies into `hist` at `k/n` of their
/// measured rate, error-diffusing the fractional part so the total count
/// is deterministic and the tail shape survives extrapolation. Returns
/// `(sum_ns, max_ns, count)` of what was recorded.
fn replay_hist(hist: &mut LatencyHistogram, lats_ns: &[u64], k: u64, n: u64) -> (u64, u64, u64) {
    let (mut sum, mut max, mut cnt) = (0u64, 0u64, 0u64);
    let mut acc = 0u64;
    for &l in lats_ns {
        acc += k;
        let m = acc / n;
        if m > 0 {
            acc -= m * n;
            hist.record_n(l, m);
            sum += l * m;
            max = max.max(l);
            cnt += m;
        }
    }
    (sum, max, cnt)
}

impl Core {
    /// Creates a core on `device`.
    ///
    /// When telemetry metrics are enabled and no explicit
    /// `sample_interval_ns` is set, periodic counter snapshots are taken
    /// on the telemetry cadence (`melody_telemetry::cadence_ns`) so the
    /// insight layer gets a windowed counter timeline from every
    /// instrumented run. Sampling only records state — it never perturbs
    /// simulated timing — so results stay identical to an unsampled run.
    pub fn new(mut cfg: CoreConfig, device: Box<dyn MemoryDevice>) -> Self {
        if cfg.sample_interval_ns.is_none() && melody_telemetry::metrics_on() {
            cfg.sample_interval_ns = Some(melody_telemetry::cadence_ns());
        }
        let p = &cfg.platform;
        let cycle_ps = p.cycle_ps();
        let hot = HotParams::new(p, cycle_ps);
        let l1 = Cache::new(p.l1d_kb as usize * 1024, 12);
        let l2 = Cache::new(p.l2_kb as usize * 1024, 16);
        let l3 = Cache::new((p.l3_mb * 1024.0 * 1024.0) as usize, 16);
        let next_sample_ps = cfg
            .sample_interval_ns
            .map(|ns| ns * 1_000)
            .unwrap_or(u64::MAX);
        Self {
            l1pf: StridePrefetcher::l1_default(),
            l2pf: StreamPrefetcher::l2_default(),
            hot,
            cycle_ps,
            t_ps: 0,
            l1,
            l2,
            l3,
            pending_l1: Vec::new(),
            pending_l2: Vec::new(),
            lfb: Vec::new(),
            sb: Vec::new(),
            counters: CounterSet::default(),
            samples: Vec::new(),
            latency_series: Vec::new(),
            demand_lat_hist: LatencyHistogram::new(),
            dep_load_hist: LatencyHistogram::new(),
            next_sample_ps,
            win_lat_sum_ps: 0,
            win_lat_max_ps: 0,
            win_lat_n: 0,
            win_read_bytes: 0,
            tick: 0,
            capturing: false,
            cap_demand_ns: Vec::new(),
            cap_dep_ns: Vec::new(),
            cfg,
            tap: device.wants_slot_observations(),
            device,
        }
    }

    /// Warms the cache hierarchy with the byte range `[start, end)`, as
    /// functional warming before timing begins.
    ///
    /// Short simulated streams otherwise suffer cold-start bias: a
    /// workload whose hot set fits in cache would spend the whole
    /// (sampled) run taking compulsory misses and look memory-bound when
    /// its steady state is cache-resident. Each level is filled with as
    /// much of the range as it holds (from the range's base), which
    /// reproduces the steady-state hit ratio. The caller picks a range
    /// matching what the steady-state cache would contain — the hot
    /// region for skewed patterns, the tail of the working set for
    /// streams (so a sequential walk still misses, as it does in steady
    /// state).
    ///
    /// O(1) per range: each level records the range and materializes a
    /// set's warmed lines when the run first reaches it (see [`Cache`]).
    /// `Core::run` consumes the core, so warming always precedes the
    /// first access.
    pub fn warm(&mut self, start_byte: u64, end_byte: u64) {
        let start = start_byte / 64;
        let span = (end_byte / 64).saturating_sub(start);
        for cache in [&mut self.l3, &mut self.l2, &mut self.l1] {
            let lines = (cache.capacity_bytes() / 64) as u64;
            cache.warm(start, span.min(lines));
        }
    }

    /// L3 capacity in bytes (for warm-range sizing).
    pub fn l3_capacity_bytes(&self) -> u64 {
        self.l3.capacity_bytes() as u64
    }

    /// Runs the slot stream to completion and returns the result.
    pub fn run<I: IntoIterator<Item = Slot>>(mut self, stream: I) -> RunResult {
        for slot in stream {
            self.step(slot);
            self.maybe_sample();
        }
        self.finish(FfAccum::default())
    }

    /// Runs the slot stream with systematic sampling (the `sampled`
    /// fidelity tier): per [`SamplingParams`] period, a detailed warmup
    /// re-primes caches, prefetchers and device queue state, a detailed
    /// window measures per-slot rates, and the remainder of the period
    /// is fast-forwarded at those rates.
    ///
    /// Skipped slots are still drawn from the stream, so the workload
    /// RNG stays on the exact same sequence as a detailed run and the
    /// instruction count is exact; time, stall counters, device traffic
    /// and latency histograms extrapolate from the last measured window.
    /// Telemetry cadence boundaries crossed by a skip still emit samples
    /// (with extrapolated cumulative counters), and time-driven device
    /// fault schedules advance across the skip via
    /// [`melody_mem::MemoryDevice::fast_forward`].
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`SamplingParams::validate`].
    pub fn run_sampled<I: IntoIterator<Item = Slot>>(
        mut self,
        stream: I,
        params: SamplingParams,
    ) -> RunResult {
        if let Err(e) = params.validate() {
            panic!("invalid SamplingParams: {e}");
        }
        let mut it = stream.into_iter();
        let mut ff = FfAccum::default();
        'periods: loop {
            // Detailed, unmeasured warmup: re-prime state after a skip.
            for _ in 0..params.warmup_slots {
                match it.next() {
                    Some(s) => {
                        self.step(s);
                        self.maybe_sample();
                    }
                    None => break 'periods,
                }
            }
            // Detailed measured window: the extrapolation source.
            let m0 = self.begin_measure();
            let mut measured = 0u64;
            while measured < params.window_slots {
                match it.next() {
                    Some(s) => {
                        self.step(s);
                        self.maybe_sample();
                        measured += 1;
                    }
                    None => break,
                }
            }
            let rates = self.end_measure(m0, measured);
            if measured < params.window_slots {
                break 'periods; // stream ended inside the window
            }
            // Fast-forward: draw (but do not simulate) the skipped slots.
            let mut skipped = 0u64;
            let mut ff_instr = 0u64;
            while skipped < params.skip_slots() {
                match it.next() {
                    Some(Slot::Compute { uops }) => ff_instr += uops as u64,
                    Some(Slot::Load { .. }) | Some(Slot::Store { .. }) => ff_instr += 1,
                    None => break,
                }
                skipped += 1;
            }
            if skipped > 0 {
                self.apply_fast_forward(&rates, skipped, ff_instr, &mut ff);
            }
            if skipped < params.skip_slots() {
                break 'periods; // stream exhausted mid-skip
            }
        }
        self.finish(ff)
    }

    /// Opens a sampled measurement window.
    fn begin_measure(&mut self) -> MeasureStart {
        self.capturing = true;
        self.cap_demand_ns.clear();
        self.cap_dep_ns.clear();
        MeasureStart {
            t_ps: self.t_ps,
            counters: self.counters,
            dev: self.device.stats(),
        }
    }

    /// Closes the measurement window and derives per-slot rates.
    fn end_measure(&mut self, m0: MeasureStart, slots: u64) -> WindowRates {
        self.capturing = false;
        let dev = self.device.stats();
        WindowRates {
            slots,
            dt_ps: self.t_ps - m0.t_ps,
            dc: self.counters.delta(&m0.counters),
            dev_reads: dev.reads - m0.dev.reads,
            dev_writes: dev.writes - m0.dev.writes,
            dev_read_lat_ps: dev.total_read_latency_ps - m0.dev.total_read_latency_ps,
            ras_correctable: dev.ras.correctable - m0.dev.ras.correctable,
            ras_uncorrectable: dev.ras.uncorrectable - m0.dev.ras.uncorrectable,
            ras_throttle_ps: dev.ras.throttle_ps - m0.dev.ras.throttle_ps,
            demand_ns: std::mem::take(&mut self.cap_demand_ns),
            dep_ns: std::mem::take(&mut self.cap_dep_ns),
        }
    }

    /// Applies one fast-forwarded region: `skipped` slots carrying
    /// `ff_instr` instructions, extrapolated at `r`'s per-slot rates.
    fn apply_fast_forward(
        &mut self,
        r: &WindowRates,
        skipped: u64,
        ff_instr: u64,
        ff: &mut FfAccum,
    ) {
        let n = r.slots.max(1);
        let scale = |x: u64| ((x as u128 * skipped as u128) / n as u128) as u64;
        // Time first: `cycles` derives from `t_ps` at the end of the
        // run, so extrapolated time covers the cycles counter. Floor
        // division under-rounds stall counters at least as much as it
        // under-rounds time, so the Figure 10 containment invariants
        // survive extrapolation.
        self.t_ps += scale(r.dt_ps);
        // Instructions are exact: the skipped slots were still drawn.
        self.counters.instructions += ff_instr;
        let d = &r.dc;
        self.counters.bound_on_loads += scale(d.bound_on_loads);
        self.counters.bound_on_stores += scale(d.bound_on_stores);
        self.counters.stalls_l1d_miss += scale(d.stalls_l1d_miss);
        self.counters.stalls_l2_miss += scale(d.stalls_l2_miss);
        self.counters.stalls_l3_miss += scale(d.stalls_l3_miss);
        self.counters.retired_stalls += scale(d.retired_stalls);
        self.counters.ports_1_util += scale(d.ports_1_util);
        self.counters.ports_2_util += scale(d.ports_2_util);
        self.counters.stalls_scoreboard += scale(d.stalls_scoreboard);
        self.counters.l1pf_l3_miss += scale(d.l1pf_l3_miss);
        self.counters.l2pf_l3_miss += scale(d.l2pf_l3_miss);
        self.counters.l2pf_l3_hit += scale(d.l2pf_l3_hit);
        self.counters.demand_l3_miss += scale(d.demand_l3_miss);
        self.counters.l2pf_issued += scale(d.l2pf_issued);
        self.counters.l2pf_dropped += scale(d.l2pf_dropped);
        self.counters.machine_checks += scale(d.machine_checks);
        // Device traffic at the window's rate. Per-request fault events
        // (CRC replays, poison UEs, thermal throttle) extrapolate with
        // the traffic; time-driven windows (retrains, refresh storms)
        // advance on the device's own clock below.
        ff.reads += scale(r.dev_reads);
        ff.writes += scale(r.dev_writes);
        ff.read_lat_ps += r.dev_read_lat_ps * skipped as u128 / n as u128;
        ff.correctable += scale(r.ras_correctable);
        ff.uncorrectable += scale(r.ras_uncorrectable);
        ff.throttle_ps += scale(r.ras_throttle_ps);
        // Histogram replay keeps sampled tails meaningful.
        let (sum_ns, max_ns, cnt) =
            replay_hist(&mut self.demand_lat_hist, &r.demand_ns, skipped, n);
        replay_hist(&mut self.dep_load_hist, &r.dep_ns, skipped, n);
        // Credit the extrapolated activity to the open cadence window so
        // LatencyPoints emitted inside the skip carry the window's rate
        // rather than zeros.
        self.win_lat_sum_ps += sum_ns * 1_000;
        self.win_lat_max_ps = self.win_lat_max_ps.max(max_ns * 1_000);
        self.win_lat_n += cnt;
        self.win_read_bytes += 64 * scale(d.demand_l3_miss + d.l1pf_l3_miss + d.l2pf_l3_miss);
        // Time-driven fault schedules elapse across the skip.
        self.device.fast_forward(self.t_ps);
        // Anything in flight at the skip boundary completes inside it:
        // no event-queue leakage into the next warmup.
        self.settle();
        // Emit any telemetry cadence boundaries the skip crossed.
        self.maybe_sample();
    }

    /// Drains outstanding work, folds in extrapolated traffic, and
    /// produces the result. `run` passes a zeroed [`FfAccum`], which
    /// leaves every value untouched — the detailed path is byte-identical
    /// to the pre-fidelity engine.
    fn finish(mut self, ff: FfAccum) -> RunResult {
        // Drain outstanding work so the wall clock covers it.
        let drain_to = self
            .lfb
            .iter()
            .map(|e| e.ready_ps)
            .chain(self.sb.iter().copied())
            .max()
            .unwrap_or(self.t_ps);
        if drain_to > self.t_ps {
            let dur = drain_to - self.t_ps;
            self.outstanding_stall(dur, self.deepest_outstanding());
        }
        self.settle();
        self.counters.cycles = self.t_ps / self.cycle_ps;
        self.flush_window();
        let mut device_stats = self.device.stats();
        device_stats.reads += ff.reads;
        device_stats.writes += ff.writes;
        device_stats.total_read_latency_ps += ff.read_lat_ps;
        device_stats.ras.correctable += ff.correctable;
        device_stats.ras.uncorrectable += ff.uncorrectable;
        device_stats.ras.throttle_ps += ff.throttle_ps;
        if ff.reads + ff.writes > 0 {
            device_stats.last_completion = device_stats.last_completion.max(self.t_ps);
        }
        RunResult {
            counters: self.counters,
            samples: self.samples,
            latency_series: self.latency_series,
            demand_lat_hist: self.demand_lat_hist,
            dep_load_hist: self.dep_load_hist,
            wall_ns: self.t_ps / 1_000,
            device_stats,
        }
    }

    fn cycles_at(&self, t_ps: u64) -> u64 {
        t_ps / self.cycle_ps
    }

    /// Advances time by `dur_ps` without stall accounting (retiring
    /// compute time).
    fn advance(&mut self, dur_ps: u64) {
        self.t_ps += dur_ps;
    }

    /// Advances time as a non-retiring stall; the caller attributes the
    /// returned cycle count to specific counters.
    fn stall_cycles(&mut self, dur_ps: u64) -> u64 {
        let c0 = self.cycles_at(self.t_ps);
        self.t_ps += dur_ps;
        let dc = self.cycles_at(self.t_ps) - c0;
        self.counters.retired_stalls += dc;
        dc
    }

    /// Stall attribution for a *fresh* dependent load traversing the
    /// hierarchy, with the Figure 10 nesting: the first `l1_lat` cycles
    /// count only as bound-on-loads (the L1 lookup segment), the next
    /// segment enters STALLS_L1D_MISS once the L1 miss is known, and so
    /// on — matching when each Intel pending-miss bit would set.
    fn load_stall(&mut self, dur_ps: u64, depth: Depth) {
        if dur_ps == 0 {
            return;
        }
        let dc = self.stall_cycles(dur_ps);
        let p = &self.cfg.platform;
        self.counters.bound_on_loads += dc;
        if depth >= Depth::L2 {
            self.counters.stalls_l1d_miss += dc.saturating_sub(p.l1_lat_cy.min(dc));
        }
        if depth >= Depth::L3 {
            self.counters.stalls_l2_miss += dc.saturating_sub(p.l2_lat_cy.min(dc));
        }
        if depth >= Depth::Mem {
            self.counters.stalls_l3_miss += dc.saturating_sub(p.l3_lat_cy.min(dc));
        }
        // A sliver of long memory stalls shows up as scoreboard pressure
        // (data-dependent serialization), the small Core term of Eq. 3.
        if depth == Depth::Mem && self.cfg.serialize_frac > 0.0 {
            self.counters.stalls_scoreboard += (dc as f64 * self.cfg.serialize_frac * 0.05) as u64;
        }
    }

    /// Stall attribution while waiting on *already-outstanding* loads
    /// (LFB full, final drain): their miss levels were determined long
    /// ago, so the whole window counts at every level down to `depth` —
    /// no per-window lookup-segment subtraction (which would smear
    /// repeated short windows into phantom shallow-level stalls).
    fn outstanding_stall(&mut self, dur_ps: u64, depth: Depth) {
        if dur_ps == 0 {
            return;
        }
        let dc = self.stall_cycles(dur_ps);
        self.counters.bound_on_loads += dc;
        if depth >= Depth::L2 {
            self.counters.stalls_l1d_miss += dc;
        }
        if depth >= Depth::L3 {
            self.counters.stalls_l2_miss += dc;
        }
        if depth >= Depth::Mem {
            self.counters.stalls_l3_miss += dc;
        }
    }

    fn deepest_outstanding(&self) -> Depth {
        self.lfb
            .iter()
            .filter(|e| !e.is_prefetch)
            .map(|e| e.depth)
            .max()
            .unwrap_or(Depth::L1)
    }

    /// Retires everything that has completed by the current time.
    fn settle(&mut self) {
        let now = self.t_ps;
        let mut i = 0;
        while i < self.pending_l1.len() {
            if self.pending_l1[i].1 <= now {
                let (line, _) = self.pending_l1.swap_remove(i);
                self.fill_l1(line, false);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.pending_l2.len() {
            if self.pending_l2[i].1 <= now {
                let (line, _) = self.pending_l2.swap_remove(i);
                self.fill_l2(line, false);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.lfb.len() {
            if self.lfb[i].ready_ps <= now {
                let e = self.lfb.swap_remove(i);
                self.fill_l1(e.line, false);
            } else {
                i += 1;
            }
        }
        self.sb.retain(|&ready| ready > now);
    }

    /// Fills into L1, cascading evictions down the hierarchy.
    fn fill_l1(&mut self, line: u64, dirty: bool) {
        if let Some((victim, vdirty)) = self.l1.fill(line, dirty) {
            self.fill_l2(victim, vdirty);
        }
    }

    fn fill_l2(&mut self, line: u64, dirty: bool) {
        if let Some((victim, vdirty)) = self.l2.fill(line, dirty) {
            self.fill_l3(victim, vdirty);
        }
    }

    fn fill_l3(&mut self, line: u64, dirty: bool) {
        if let Some((victim, vdirty)) = self.l3.fill(line, dirty) {
            if vdirty {
                // Dirty LLC eviction: writeback to the device (posted).
                self.device.access(&MemRequest::new(
                    victim * 64,
                    RequestKind::WriteBack,
                    self.t_ps,
                ));
            }
        }
    }

    /// Demand-miss LFB occupancy. L1 prefetches occupy a separate
    /// prefetch-buffer budget (half the LFB size) — demand misses never
    /// starve the prefetcher outright, matching real DCU behaviour and
    /// preserving the paper's Figure 12 signature where the L1PF keeps
    /// issuing (and missing L3) when L2PF coverage collapses under CXL.
    fn lfb_used(&self) -> usize {
        self.lfb.len()
    }

    fn l1pf_budget(&self) -> usize {
        self.hot.lfb_entries.max(2)
    }

    /// Where is `line`, as of now, without side effects on pendings.
    fn find_pending_l1(&self, line: u64) -> Option<u64> {
        self.pending_l1
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, r)| r)
    }

    fn find_pending_l2(&self, line: u64) -> Option<u64> {
        self.pending_l2
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, r)| r)
    }

    fn step(&mut self, slot: Slot) {
        match slot {
            Slot::Compute { uops } => self.do_compute(uops),
            Slot::Load { addr, dependent } => self.do_load(addr, dependent),
            Slot::Store { addr } => self.do_store(addr),
        }
    }

    fn do_compute(&mut self, uops: u32) {
        let ilp = self.cfg.ilp.clamp(0.25, self.hot.ipc_peak);
        let cycles = (uops as f64 / ilp).ceil() as u64;
        self.counters.instructions += uops as u64;
        self.advance(cycles * self.cycle_ps);
        // Non-retiring share of compute cycles and port-utilization
        // counters; purely a function of the instruction mix, so the
        // local-vs-CXL delta of these counters is ~0 (the paper's
        // observation that CXL barely moves Core/frontend stalls).
        let retire_cycles = (uops as f64 / self.hot.ipc_peak).ceil() as u64;
        let nonretiring = cycles.saturating_sub(retire_cycles);
        self.counters.retired_stalls += nonretiring;
        let w1 = ((2.5 - ilp) * 0.4).clamp(0.0, 0.8);
        let w2 = ((3.5 - ilp) * 0.25).clamp(0.0, 0.5 - w1.min(0.4));
        self.counters.ports_1_util += (nonretiring as f64 * w1) as u64;
        self.counters.ports_2_util += (nonretiring as f64 * w2) as u64;
        // Frontend-bound share: extra fetch/decode stall cycles.
        if self.cfg.frontend_bound > 0.0 {
            let fe = (cycles as f64 * self.cfg.frontend_bound) as u64;
            self.stall_cycles(fe * self.cycle_ps);
        }
        // Serializing operations stall the scoreboard.
        if self.cfg.serialize_frac > 0.0 {
            let ser = (cycles as f64 * self.cfg.serialize_frac) as u64;
            let dc = self.stall_cycles(ser * self.cycle_ps);
            self.counters.stalls_scoreboard += dc;
        }
    }

    fn record_demand_latency(&mut self, lat_ps: u64) {
        self.demand_lat_hist.record(lat_ps / 1_000);
        if self.capturing {
            self.cap_demand_ns.push(lat_ps / 1_000);
        }
        self.win_lat_sum_ps += lat_ps;
        self.win_lat_max_ps = self.win_lat_max_ps.max(lat_ps);
        self.win_lat_n += 1;
    }

    fn record_dep_latency(&mut self, lat_ps: u64) {
        self.dep_load_hist.record(lat_ps / 1_000);
        if self.capturing {
            self.cap_dep_ns.push(lat_ps / 1_000);
        }
    }

    fn do_load(&mut self, addr: u64, dependent: bool) {
        let line = addr / 64;
        self.counters.instructions += 1;
        self.settle();
        if self.tap {
            self.device.observe_slot(addr, false, self.t_ps);
        }

        // Hardware prefetch hooks observe the demand stream first so they
        // can run ahead of it.
        if self.cfg.prefetchers {
            self.run_l1_prefetcher(line);
        }

        // L1 hit: dependent pointer chases pay the L1 load-to-use
        // latency; independent L1 hits are fully hidden by the OoO core.
        if self.l1.probe(line) {
            if dependent {
                let d = self.hot.l1_lat_ps;
                self.record_dep_latency(d);
                self.load_stall(d, Depth::L1);
            }
            return;
        }

        // Delayed L1 hit: an L1 prefetch for this line is still in
        // flight. The wait counts as bound-on-loads but NOT as an L1-miss
        // stall (the line is allocated, data is late) — this is the sL1
        // "delayed L1 hits" component of the paper's Finding #4.
        if let Some(ready) = self.find_pending_l1(line) {
            if dependent {
                let d = ready.saturating_sub(self.t_ps) + self.hot.l1_lat_ps;
                self.record_dep_latency(d);
                self.load_stall(d, Depth::L1);
            }
            return;
        }

        // L2 path (the L2 prefetcher observes L2 traffic).
        if self.cfg.prefetchers {
            self.run_l2_prefetcher(line);
        }
        if self.l2.probe(line) {
            self.fill_l1(line, false);
            if dependent {
                let d = self.hot.l2_lat_ps;
                self.record_dep_latency(d);
                self.load_stall(d, Depth::L2);
            }
            return;
        }

        // Delayed L2 hit on a pending L2 prefetch: stalls at the L2 level.
        if let Some(ready) = self.find_pending_l2(line) {
            let wait = ready.saturating_sub(self.t_ps) + self.hot.l2_lat_ps;
            if dependent {
                self.record_dep_latency(wait);
                self.load_stall(wait, Depth::L2);
            } else {
                self.lfb_insert(line, self.t_ps + wait, Depth::L2, false);
            }
            return;
        }

        if self.l3.probe(line) {
            self.fill_l1(line, false);
            if dependent {
                let d = self.hot.l3_lat_ps;
                self.record_dep_latency(d);
                self.load_stall(d, Depth::L3);
            } else {
                self.lfb_insert(line, self.t_ps + self.hot.l3_lat_ps, Depth::L3, false);
            }
            return;
        }

        // Memory access.
        self.counters.demand_l3_miss += 1;
        let a = self
            .device
            .access(&MemRequest::new(addr, RequestKind::DemandRead, self.t_ps));
        let lat_ps = a.completion.saturating_sub(self.t_ps);
        self.record_demand_latency(lat_ps);
        self.win_read_bytes += 64;
        if a.poisoned {
            // Consuming a poisoned (uncorrectable-error) line raises a
            // machine check: the handler flushes the pipeline and
            // re-arms the core, a fixed recovery cost charged as pure
            // retirement stall (no load-bound attribution — the core is
            // in the MCE handler, not waiting on memory).
            self.counters.machine_checks += 1;
            self.stall_cycles(MCE_RECOVERY_PS);
            if melody_telemetry::metrics_on() {
                melody_telemetry::count("cpu.machine_checks", 1);
                melody_telemetry::emit(
                    melody_telemetry::EventKind::MceRecovery,
                    self.t_ps,
                    MCE_RECOVERY_PS,
                    MCE_RECOVERY_PS,
                    0,
                );
            }
        }
        if melody_telemetry::metrics_on() {
            melody_telemetry::count("cpu.demand_l3_miss", 1);
            melody_telemetry::record_ns("cpu.demand_lat_ns", lat_ps / 1_000);
            if a.node > 0 {
                // Per-fabric-node demand traffic (topology runs only;
                // single devices report node 0). Metric names must be
                // static, so fan-out is bounded: nodes past the eighth
                // clamp onto the last counter.
                let i = (a.node as usize - 1).min(NODE_DEMAND.len() - 1);
                melody_telemetry::count(NODE_DEMAND[i], 1);
            }
        }
        if dependent {
            self.record_dep_latency(lat_ps);
            self.load_stall(lat_ps, Depth::Mem);
            if melody_telemetry::trace_on() {
                melody_telemetry::emit(
                    melody_telemetry::EventKind::LoadStall,
                    self.t_ps,
                    lat_ps,
                    lat_ps,
                    lat_ps,
                );
            }
            self.fill_l1(line, false);
            self.fill_l2(line, false);
        } else {
            self.lfb_insert(line, a.completion, Depth::Mem, false);
        }
    }

    /// Inserts an independent miss into the LFB, stalling if it is full.
    fn lfb_insert(&mut self, line: u64, ready_ps: u64, depth: Depth, is_prefetch: bool) {
        if melody_telemetry::metrics_on() {
            melody_telemetry::record_ns("cpu.lfb_occupancy", self.lfb_used() as u64);
            if self.lfb_used() >= self.hot.lfb_entries {
                melody_telemetry::count("cpu.lfb_full", 1);
                melody_telemetry::emit(
                    melody_telemetry::EventKind::LfbFull,
                    self.t_ps,
                    0,
                    self.lfb_used() as u64,
                    0,
                );
            }
        }
        while self.lfb_used() >= self.hot.lfb_entries {
            // Stall until the earliest in-flight entry completes.
            let earliest = self
                .lfb
                .iter()
                .map(|e| e.ready_ps)
                .min()
                .expect("lfb full implies entries");
            let wait = earliest.saturating_sub(self.t_ps);
            let depth_out = self.deepest_outstanding();
            self.outstanding_stall(wait.max(1), depth_out);
            self.settle();
        }
        self.lfb.push(LfbEntry {
            line,
            ready_ps,
            depth,
            is_prefetch,
        });
    }

    fn do_store(&mut self, addr: u64) {
        let line = addr / 64;
        self.counters.instructions += 1;
        self.settle();
        if self.tap {
            self.device.observe_slot(addr, true, self.t_ps);
        }

        // Already own the line: write hits the cache.
        if self.l1.mark_dirty(line) || self.l2.mark_dirty(line) {
            return;
        }

        // Needs an RFO. Block on a full store buffer first. The blocker
        // is the store (loads in the LFB are progressing fine), so these
        // cycles are BOUND_ON_STORES — Intel's definition excludes only
        // cycles where a *load stall* is concurrently charged, and the
        // exclusive partition of Figure 10 holds because P1 and P2 never
        // double-count the same cycle here.
        while self.sb.len() >= self.hot.store_buffer_entries {
            let earliest = *self.sb.iter().min().expect("non-empty");
            let wait = earliest.saturating_sub(self.t_ps).max(1);
            let dc = self.stall_cycles(wait);
            self.counters.bound_on_stores += dc;
            self.settle();
        }
        let a = self
            .device
            .access(&MemRequest::new(addr, RequestKind::Rfo, self.t_ps));
        self.sb.push(a.completion);
        // The RFO'd line lands dirty in L1 when it returns; model the fill
        // immediately (the timing effect is carried by the SB entry).
        self.fill_l1(line, true);
    }

    fn run_l1_prefetcher(&mut self, line: u64) {
        let reqs = self.l1pf.observe(line);
        for r in reqs {
            if self.l1.contains(r.line)
                || self.find_pending_l1(r.line).is_some()
                || self.pending_l1.len() >= self.l1pf_budget()
            {
                continue;
            }
            // The L1 prefetch reaches L2, so the L2 stream prefetcher
            // observes it — this is how the L2PF trains ahead of demand
            // when L1 prefetching is covering the demand stream.
            self.run_l2_prefetcher(r.line);
            // Resolve the prefetch source.
            let ready = if self.l2.contains(r.line) {
                self.t_ps + self.hot.l2_lat_ps
            } else if let Some(r2) = self.find_pending_l2(r.line) {
                r2.max(self.t_ps) + self.hot.l2_lat_ps
            } else if self.l3.contains(r.line) {
                self.t_ps + self.hot.l3_lat_ps
            } else {
                // L1 prefetch all the way to memory: the L1PF-L3-miss
                // event of Figure 12a.
                self.counters.l1pf_l3_miss += 1;
                let a = self.device.access(&MemRequest::new(
                    r.line * 64,
                    RequestKind::PrefetchRead,
                    self.t_ps,
                ));
                self.win_read_bytes += 64;
                a.completion
            };
            self.pending_l1.push((r.line, ready));
        }
    }

    fn run_l2_prefetcher(&mut self, line: u64) {
        self.tick += 1;
        let reqs = self.l2pf.observe(line, self.tick);
        for r in reqs {
            if self.l2.contains(r.line) || self.find_pending_l2(r.line).is_some() {
                continue;
            }
            if self.pending_l2.len() >= self.hot.l2pf_slots {
                // No free in-flight slot: the prefetch is dropped. Longer
                // memory latency keeps slots busy longer, so more drops —
                // the coverage loss of Finding #4.
                self.counters.l2pf_dropped += 1;
                continue;
            }
            self.counters.l2pf_issued += 1;
            let ready = if self.l3.contains(r.line) {
                self.counters.l2pf_l3_hit += 1;
                self.t_ps + self.hot.l3_lat_ps
            } else {
                self.counters.l2pf_l3_miss += 1;
                let a = self.device.access(&MemRequest::new(
                    r.line * 64,
                    RequestKind::PrefetchRead,
                    self.t_ps,
                ));
                self.win_read_bytes += 64;
                a.completion
            };
            self.pending_l2.push((r.line, ready));
        }
    }

    fn maybe_sample(&mut self) {
        while self.t_ps >= self.next_sample_ps {
            let interval_ps = self.cfg.sample_interval_ns.expect("sampling enabled") * 1_000;
            let mut c = self.counters;
            c.cycles = self.cycles_at(self.next_sample_ps);
            self.samples.push(CounterSample {
                time_ns: self.next_sample_ps / 1_000,
                counters: c,
            });
            self.flush_window();
            self.next_sample_ps += interval_ps;
        }
    }

    fn flush_window(&mut self) {
        let time_ns = self.t_ps.min(self.next_sample_ps) / 1_000;
        self.latency_series.push(LatencyPoint {
            time_ns,
            mean_lat_ns: if self.win_lat_n == 0 {
                0.0
            } else {
                self.win_lat_sum_ps as f64 / self.win_lat_n as f64 / 1_000.0
            },
            max_lat_ns: self.win_lat_max_ps / 1_000,
            read_bytes: self.win_read_bytes,
        });
        self.win_lat_sum_ps = 0;
        self.win_lat_max_ps = 0;
        self.win_lat_n = 0;
        self.win_read_bytes = 0;
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("platform", &self.cfg.platform.name)
            .field("device", &self.device.name())
            .field("t_ns", &(self.t_ps / 1_000))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melody_mem::presets;

    fn emr_core(spec: melody_mem::DeviceSpec) -> Core {
        Core::new(CoreConfig::new(Platform::emr2s()), spec.build(7))
    }

    /// Dependent pointer chase over a working set far larger than LLC.
    fn chase(n: u64) -> impl Iterator<Item = Slot> {
        (0..n).map(|i| Slot::Load {
            addr: (i.wrapping_mul(0x9E3779B97F4A7C15) % (1 << 26)) * 64,
            dependent: true,
        })
    }

    #[test]
    fn pointer_chase_latency_matches_device() {
        let r = emr_core(presets::local_emr()).run(chase(2_000));
        // Each chase step ~ local idle latency (111 ns) ≈ 233 cycles.
        let cpi = r.counters.cycles as f64 / r.counters.instructions as f64;
        assert!((180.0..300.0).contains(&cpi), "chase CPI {cpi}");
        assert!(r.counters.invariants_hold());
    }

    #[test]
    fn cxl_chase_slower_in_proportion_to_latency() {
        let local = emr_core(presets::local_emr()).run(chase(2_000));
        let cxl = emr_core(presets::cxl_b()).run(chase(2_000));
        let slowdown = cxl.slowdown_vs(&local);
        // 271/111 - 1 ≈ 1.44; allow a broad band.
        assert!(
            (0.9..2.0).contains(&slowdown),
            "CXL-B chase slowdown {slowdown}"
        );
    }

    #[test]
    fn chase_stalls_are_dram_stalls() {
        let r = emr_core(presets::local_emr()).run(chase(2_000));
        let c = &r.counters;
        assert!(c.stalls_l3_miss > 0);
        // Almost all memory stalls should be DRAM-level for a chase.
        assert!(
            c.s_dram() > c.s_memory() / 2,
            "dram {} vs memory {}",
            c.s_dram(),
            c.s_memory()
        );
    }

    #[test]
    fn small_working_set_stays_in_cache() {
        // 16 KiB working set: after the first pass everything hits L1.
        let stream = (0..10_000u64).map(|i| Slot::Load {
            addr: (i % 256) * 64,
            dependent: true,
        });
        let r = emr_core(presets::local_emr()).run(stream);
        let cpi = r.counters.cycles as f64 / r.counters.instructions as f64;
        assert!(cpi < 10.0, "cached chase CPI {cpi}");
        assert!(r.counters.demand_l3_miss < 300);
    }

    #[test]
    fn poisoned_lines_raise_machine_checks_and_stall() {
        let mut fc = melody_mem::FaultConfig::poison();
        fc.poison.as_mut().unwrap().ue_p = 2e-3;
        let clean = emr_core(presets::cxl_b()).run(chase(2_000));
        let faulted = emr_core(presets::cxl_b().with_faults(fc)).run(chase(2_000));
        let c = &faulted.counters;
        assert!(c.machine_checks > 0, "UEs expected at 2e-3 over 2k misses");
        assert_eq!(c.machine_checks, faulted.device_stats.ras.uncorrectable);
        assert!(c.invariants_hold());
        // Each MCE costs ~10 µs of pure retirement stall, dwarfing the
        // per-miss latency: the faulted run must be visibly slower.
        assert!(
            c.cycles > clean.counters.cycles,
            "MCE recovery should cost cycles: {} vs {}",
            c.cycles,
            clean.counters.cycles
        );
        assert_eq!(clean.counters.machine_checks, 0);
    }

    #[test]
    fn sequential_stream_is_prefetched() {
        let seq = |n: u64| {
            (0..n).map(|i| Slot::Load {
                addr: i * 64,
                dependent: true,
            })
        };
        let pf_on = emr_core(presets::local_emr()).run(seq(20_000));
        let mut cfg = CoreConfig::new(Platform::emr2s());
        cfg.prefetchers = false;
        let pf_off = Core::new(cfg, presets::local_emr().build(7)).run(seq(20_000));
        assert!(
            pf_on.counters.cycles * 2 < pf_off.counters.cycles,
            "prefetching should speed up sequential streams ({} vs {})",
            pf_on.counters.cycles,
            pf_off.counters.cycles
        );
        assert!(pf_on.counters.l2pf_issued > 1_000);
    }

    #[test]
    fn prefetchers_off_means_no_cache_stall_components() {
        // Finding #4 validation: with prefetchers off, sL1+sL2+sL3 ≈ 0 for
        // a sequential stream (all stalls fall on DRAM).
        let seq = (0..20_000u64).map(|i| Slot::Load {
            addr: i * 64,
            dependent: true,
        });
        let mut cfg = CoreConfig::new(Platform::emr2s());
        cfg.prefetchers = false;
        let r = Core::new(cfg, presets::cxl_a().build(7)).run(seq);
        let c = &r.counters;
        let cache_stalls = c.s_l1() + c.s_l2() + c.s_l3();
        let frac = cache_stalls as f64 / c.s_memory().max(1) as f64;
        assert!(frac < 0.15, "cache-stall fraction {frac} with PF off");
    }

    #[test]
    fn cxl_reduces_l2pf_coverage_and_shifts_misses_to_l1pf() {
        // Figure 12a: moving from local to CXL decreases L2PF-L3-miss and
        // increases L1PF-L3-miss. The shift needs a demand stream fast
        // enough that the L2 prefetcher's in-flight budget covers it at
        // local latency but not at CXL latency (~9 ns/line: 16 slots give
        // 16·9 = 144 ns of run-ahead — above 111 ns, below 271 ns).
        let seq = |n: u64| {
            (0..n).flat_map(|i| {
                [
                    Slot::Compute { uops: 38 },
                    Slot::Load {
                        addr: i * 64,
                        dependent: false,
                    },
                ]
            })
        };
        let local = emr_core(presets::local_emr()).run(seq(40_000));
        let cxl = emr_core(presets::cxl_b()).run(seq(40_000));
        assert!(
            cxl.counters.l2pf_l3_miss < local.counters.l2pf_l3_miss,
            "L2PF coverage should fall under CXL: {} vs {}",
            cxl.counters.l2pf_l3_miss,
            local.counters.l2pf_l3_miss
        );
        assert!(
            cxl.counters.l1pf_l3_miss > local.counters.l1pf_l3_miss,
            "L1PF misses should rise under CXL: {} vs {}",
            cxl.counters.l1pf_l3_miss,
            local.counters.l1pf_l3_miss
        );
        assert!(cxl.counters.l2pf_dropped > local.counters.l2pf_dropped);
    }

    #[test]
    fn store_heavy_stream_fills_store_buffer() {
        let stores = (0..20_000u64).map(|i| Slot::Store {
            addr: (i.wrapping_mul(0x9E3779B97F4A7C15) % (1 << 26)) * 64,
        });
        let r = emr_core(presets::cxl_b()).run(stores);
        assert!(
            r.counters.bound_on_stores > 0,
            "random store flood must hit BOUND_ON_STORES"
        );
        assert!(r.counters.invariants_hold());
    }

    #[test]
    fn independent_loads_overlap() {
        let mk = |dep: bool| {
            (0..4_000u64).map(move |i| Slot::Load {
                addr: (i.wrapping_mul(0x9E3779B97F4A7C15) % (1 << 26)) * 64,
                dependent: dep,
            })
        };
        let dep = emr_core(presets::local_emr()).run(mk(true));
        let indep = emr_core(presets::local_emr()).run(mk(false));
        assert!(
            indep.counters.cycles * 3 < dep.counters.cycles,
            "MLP should hide most latency: {} vs {}",
            indep.counters.cycles,
            dep.counters.cycles
        );
    }

    #[test]
    fn counters_invariants_across_devices() {
        for spec in [
            presets::local_emr(),
            presets::numa_emr(),
            presets::cxl_a(),
            presets::cxl_c(),
            presets::cxl_d().with_numa_hop(),
        ] {
            let mixed = (0..5_000u64).flat_map(|i| {
                [
                    Slot::Compute { uops: 8 },
                    Slot::Load {
                        addr: (i.wrapping_mul(2654435761) % (1 << 25)) * 64,
                        dependent: i % 3 == 0,
                    },
                    Slot::Store {
                        addr: (i.wrapping_mul(40503) % (1 << 24)) * 64,
                    },
                ]
            });
            let r = emr_core(spec.clone()).run(mixed);
            assert!(
                r.counters.invariants_hold(),
                "{}: counter invariants violated: {:?}",
                spec.name(),
                r.counters
            );
        }
    }

    #[test]
    fn sampling_produces_aligned_series() {
        let mut cfg = CoreConfig::new(Platform::emr2s());
        cfg.sample_interval_ns = Some(10_000);
        let stream = (0..30_000u64).map(|i| Slot::Load {
            addr: (i.wrapping_mul(0x9E3779B97F4A7C15) % (1 << 26)) * 64,
            dependent: true,
        });
        let r = Core::new(cfg, presets::local_emr().build(7)).run(stream);
        assert!(
            r.samples.len() > 10,
            "expected samples, got {}",
            r.samples.len()
        );
        // Samples are time-ordered and counters monotone.
        for w in r.samples.windows(2) {
            assert!(w[1].time_ns > w[0].time_ns);
            assert!(w[1].counters.cycles >= w[0].counters.cycles);
            assert!(w[1].counters.instructions >= w[0].counters.instructions);
        }
    }

    #[test]
    fn compute_only_stream_counts_instructions_and_ports() {
        let mut cfg = CoreConfig::new(Platform::emr2s());
        cfg.ilp = 1.2; // low ILP: many non-retiring cycles at 1-2 ports
        let stream = (0..500).map(|_| Slot::Compute { uops: 40 });
        let r = Core::new(cfg, presets::local_emr().build(1)).run(stream);
        assert_eq!(r.counters.instructions, 500 * 40);
        assert!(
            r.counters.ports_1_util > 0,
            "low-ILP compute must show 1-port cycles"
        );
        assert_eq!(r.counters.bound_on_loads, 0);
        assert_eq!(r.counters.demand_l3_miss, 0);
        assert!(r.counters.invariants_hold());
    }

    #[test]
    fn frontend_bound_adds_only_retired_stalls() {
        let mk = |fe: f64| {
            let mut cfg = CoreConfig::new(Platform::emr2s());
            cfg.frontend_bound = fe;
            let stream = (0..500).map(|_| Slot::Compute { uops: 40 });
            Core::new(cfg, presets::local_emr().build(1)).run(stream)
        };
        let base = mk(0.0);
        let fe = mk(0.3);
        assert!(fe.counters.cycles > base.counters.cycles);
        assert!(fe.counters.retired_stalls > base.counters.retired_stalls);
        // Frontend stalls never enter the memory counters.
        assert_eq!(fe.counters.bound_on_loads, base.counters.bound_on_loads);
        assert_eq!(fe.counters.bound_on_stores, base.counters.bound_on_stores);
    }

    #[test]
    fn serialize_frac_shows_up_as_scoreboard() {
        let mut cfg = CoreConfig::new(Platform::emr2s());
        cfg.serialize_frac = 0.1;
        let stream = (0..500).map(|_| Slot::Compute { uops: 40 });
        let r = Core::new(cfg, presets::local_emr().build(1)).run(stream);
        assert!(r.counters.stalls_scoreboard > 0);
        assert!(r.counters.invariants_hold());
    }

    #[test]
    fn warm_makes_resident_set_hit() {
        let mut cfg_core = Core::new(
            CoreConfig::new(Platform::emr2s()),
            presets::cxl_c().build(1),
        );
        cfg_core.warm(0, 4 << 20); // 4 MiB
                                   // Dependent chase inside the warmed range: everything hits cache.
        let stream = (0..5_000u64).map(|i| Slot::Load {
            addr: (i.wrapping_mul(2654435761) % (4 * 16_384)) * 64,
            dependent: true,
        });
        let r = cfg_core.run(stream);
        assert_eq!(
            r.counters.demand_l3_miss, 0,
            "warmed range must not miss: {:?}",
            r.counters
        );
    }

    #[test]
    fn rfo_traffic_reaches_device() {
        // Stores to unowned lines issue RFOs (read-direction device
        // traffic) and dirty lines evicted through a small LLC write
        // back to the device.
        let mut platform = Platform::emr2s();
        platform.l2_kb = 256; // tiny L2/LLC so dirty evictions reach memory
        platform.l3_mb = 0.5;
        let stores = (0..30_000u64).map(|i| Slot::Store { addr: i * 64 });
        let r = Core::new(CoreConfig::new(platform), presets::local_emr().build(7)).run(stores);
        assert!(r.device_stats.reads > 10_000, "RFOs: {:?}", r.device_stats);
        assert!(
            r.device_stats.writes > 1_000,
            "writebacks: {:?}",
            r.device_stats
        );
    }

    #[test]
    fn smp_scaling_increases_throughput() {
        let mk = |threads: u32| {
            let cfg = CoreConfig::new(Platform::emr2s().smp_scaled(threads));
            let stream = (0..20_000u64).map(|i| Slot::Load {
                addr: i * 64,
                dependent: false,
            });
            Core::new(cfg, presets::local_emr().build(9)).run(stream)
        };
        let one = mk(1);
        let eight = mk(8);
        assert!(
            eight.wall_ns * 3 < one.wall_ns,
            "8-thread scaling should cut wall time: {} vs {}",
            eight.wall_ns,
            one.wall_ns
        );
    }

    #[test]
    fn frontend_bound_workload_insensitive_to_cxl() {
        // Mostly-compute, frontend-bound stream: CXL slowdown near zero.
        let mk = || {
            (0..10_000u64).flat_map(|i| {
                [
                    Slot::Compute { uops: 200 },
                    Slot::Load {
                        addr: (i % 64) * 64,
                        dependent: true,
                    },
                ]
            })
        };
        let mut cfg = CoreConfig::new(Platform::emr2s());
        cfg.frontend_bound = 0.4;
        let local = Core::new(cfg.clone(), presets::local_emr().build(7)).run(mk());
        let cxl = Core::new(cfg, presets::cxl_c().build(7)).run(mk());
        let slowdown = cxl.slowdown_vs(&local);
        assert!(
            slowdown < 0.05,
            "frontend-bound workload should tolerate CXL: {slowdown}"
        );
    }

    /// Mixed stream with a stable statistical profile: a good target for
    /// extrapolation-accuracy checks.
    fn mixed(n: u64) -> impl Iterator<Item = Slot> {
        (0..n).flat_map(|i| {
            [
                Slot::Compute { uops: 3 },
                Slot::Load {
                    addr: (i.wrapping_mul(0x9E3779B97F4A7C15) % (1 << 22)) * 64,
                    dependent: i % 3 == 0,
                },
            ]
        })
    }

    fn sample_params() -> SamplingParams {
        SamplingParams {
            warmup_slots: 256,
            window_slots: 1_024,
            period_slots: 8_192,
        }
    }

    #[test]
    fn sampled_instruction_count_is_exact() {
        // Skipped slots are still drawn from the stream, so the
        // instruction count must match a detailed run exactly — the
        // observable proof of RNG/stream continuity.
        let detailed = emr_core(presets::cxl_a()).run(mixed(40_000));
        let sampled = emr_core(presets::cxl_a()).run_sampled(mixed(40_000), sample_params());
        assert_eq!(
            sampled.counters.instructions,
            detailed.counters.instructions
        );
    }

    #[test]
    fn sampled_preserves_counter_invariants() {
        for spec in [presets::local_emr(), presets::cxl_b()] {
            let r = emr_core(spec).run_sampled(mixed(50_000), sample_params());
            assert!(r.counters.invariants_hold(), "{:?}", r.counters);
        }
    }

    #[test]
    fn sampled_is_deterministic() {
        let a = emr_core(presets::cxl_a()).run_sampled(mixed(30_000), sample_params());
        let b = emr_core(presets::cxl_a()).run_sampled(mixed(30_000), sample_params());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.device_stats, b.device_stats);
        assert_eq!(a.wall_ns, b.wall_ns);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn sampled_cycles_track_detailed_within_bound() {
        // The unit-level accuracy bound (tests/fidelity.rs holds the
        // full-stack differential to 5 % on slowdowns).
        let detailed = emr_core(presets::cxl_a()).run(mixed(60_000));
        let sampled = emr_core(presets::cxl_a()).run_sampled(mixed(60_000), sample_params());
        let err = (sampled.counters.cycles as f64 - detailed.counters.cycles as f64).abs()
            / detailed.counters.cycles as f64;
        assert!(err < 0.10, "sampled cycle error {err}");
    }

    #[test]
    fn sampled_simulates_fewer_slots_in_detail() {
        // The sampled run must actually skip the event loop for most
        // slots: device traffic served by `access` (reads before the
        // extrapolated fold-in would differ) is visible as a much lower
        // delayed-hit/pending footprint. Use demand_l3_miss on the
        // *live* path: extrapolated misses scale the counter but are
        // never sent to the device, so sampled device stats come out of
        // ~16 % detailed traffic plus scaled fill-in. Equality of final
        // reads within the error bound plus a shorter real runtime is
        // covered elsewhere; here, check the schedule arithmetic held.
        let p = sample_params();
        assert!(p.detail_fraction() < 0.2);
        let detailed = emr_core(presets::cxl_a()).run(mixed(60_000));
        let sampled = emr_core(presets::cxl_a()).run_sampled(mixed(60_000), p);
        let err = (sampled.device_stats.reads as f64 - detailed.device_stats.reads as f64).abs()
            / detailed.device_stats.reads.max(1) as f64;
        assert!(err < 0.15, "sampled device-read extrapolation error {err}");
    }

    #[test]
    fn fast_forward_boundary_leaves_no_inflight_state() {
        // White-box: after a fast-forward, the LFB, store buffer and
        // pending-prefetch lists must be empty — nothing simulated in a
        // measured window may leak an event into the next warmup.
        let mut core = emr_core(presets::cxl_a());
        let mut slots = mixed(20_000);
        for _ in 0..1_024 {
            let s = slots.next().unwrap();
            core.step(s);
        }
        let m0 = core.begin_measure();
        for _ in 0..1_024 {
            let s = slots.next().unwrap();
            core.step(s);
        }
        let rates = core.end_measure(m0, 1_024);
        let mut ff = FfAccum::default();
        core.apply_fast_forward(&rates, 4_096, 4_096, &mut ff);
        assert!(core.lfb.is_empty(), "LFB leaked across fast-forward");
        assert!(
            core.sb.is_empty(),
            "store buffer leaked across fast-forward"
        );
        assert!(core.pending_l1.is_empty(), "pending L1 prefetches leaked");
        assert!(core.pending_l2.is_empty(), "pending L2 prefetches leaked");
        assert!(!core.capturing, "capture flag stuck after window close");
    }

    #[test]
    fn fast_forward_advances_time_and_traffic_monotonically() {
        let mut core = emr_core(presets::cxl_b());
        let mut slots = mixed(20_000);
        for _ in 0..2_048 {
            core.step(slots.next().unwrap());
        }
        let m0 = core.begin_measure();
        for _ in 0..1_024 {
            core.step(slots.next().unwrap());
        }
        let rates = core.end_measure(m0, 1_024);
        let t_before_ff = core.t_ps;
        let mut ff = FfAccum::default();
        core.apply_fast_forward(&rates, 8_192, 8_192, &mut ff);
        assert!(core.t_ps > t_before_ff, "fast-forward must advance time");
        assert!(ff.reads > 0, "a memory-bound window must extrapolate reads");
        // Scaled time ≈ 8× the window's span (8192 skipped / 1024 measured).
        let expected = rates.dt_ps * 8;
        assert_eq!(core.t_ps - t_before_ff, expected);
    }

    #[test]
    #[should_panic(expected = "invalid SamplingParams")]
    fn run_sampled_rejects_invalid_params() {
        let p = SamplingParams {
            warmup_slots: 10,
            window_slots: 0,
            period_slots: 100,
        };
        emr_core(presets::local_emr()).run_sampled(mixed(100), p);
    }
}
