//! Timing wrappers around the simulator's public interfaces, and a
//! replay of `melody::run_workload` / `melody::run_pair` that drives
//! them.
//!
//! [`TimedDevice`] wraps the device built from a `DeviceSpec` and
//! [`TimedStream`] wraps the workload's `SlotStream`; both forward every
//! call unchanged and add its host time to shared [`Clocks`]. The
//! replay repeats the library's run sequence step by step (device build,
//! `Core::new`, functional warming, `run`/`run_sampled`, or the interval
//! model for the fast tier) with a span around each step, so its
//! `PairOutcome` must serialize byte-identically to the library's.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use melody::{PairOutcome, RunOptions};
use melody_cpu::{Core, CoreConfig, Fidelity, Platform, RunResult, Slot};
use melody_mem::{AccessBreakdown, DeviceSpec, DeviceStats, MemRequest, MemoryDevice, PolicyKind};
use melody_workloads::{Pattern, SlotStream, WorkloadSpec};

use crate::trace::Recorder;

/// Host time and call count of one fine-grained layer.
#[derive(Debug, Default)]
pub struct Busy {
    ns: Cell<u64>,
    count: Cell<u64>,
}

impl Busy {
    fn add(&self, since: Instant) {
        self.ns
            .set(self.ns.get() + since.elapsed().as_nanos() as u64);
        self.count.set(self.count.get() + 1);
    }

    /// Nanoseconds accumulated.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Calls counted.
    pub fn count(&self) -> u64 {
        self.count.get()
    }
}

/// Fine-grained layer clocks shared between the wrappers and the replay.
#[derive(Debug, Default)]
pub struct Clocks {
    /// `SlotStream::next`.
    pub stream: Busy,
    /// `MemoryDevice::access`.
    pub access: Busy,
    /// `MemoryDevice::observe_slot`.
    pub observe: Busy,
    /// `MemoryDevice::fast_forward`.
    pub fast_forward: Busy,
}

impl Clocks {
    fn snapshot(&self) -> [(u64, u64); 4] {
        [
            &self.stream,
            &self.access,
            &self.observe,
            &self.fast_forward,
        ]
        .map(|b| (b.ns(), b.count()))
    }

    /// Charges everything accumulated since `before` to `rec`'s open span.
    fn charge_since(&self, before: [(u64, u64); 4], rec: &Recorder) {
        let names = [
            "workloads.stream",
            "mem.access",
            "mem.observe",
            "mem.fast_forward",
        ];
        for ((name, (ns0, n0)), (ns1, n1)) in names.iter().zip(before).zip(self.snapshot()) {
            if n1 > n0 {
                rec.charge(name, ns1 - ns0, n1 - n0);
            }
        }
    }
}

/// A device that times every call and forwards it unchanged.
pub struct TimedDevice {
    inner: Box<dyn MemoryDevice>,
    clocks: Rc<Clocks>,
}

impl TimedDevice {
    /// Wraps `inner`, accumulating into `clocks`.
    pub fn new(inner: Box<dyn MemoryDevice>, clocks: Rc<Clocks>) -> Self {
        Self { inner, clocks }
    }
}

impl MemoryDevice for TimedDevice {
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown {
        let t = Instant::now();
        let r = self.inner.access(req);
        self.clocks.access.add(t);
        r
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn nominal_latency_ns(&self) -> f64 {
        self.inner.nominal_latency_ns()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn fast_forward(&mut self, now: u64) {
        let t = Instant::now();
        self.inner.fast_forward(now);
        self.clocks.fast_forward.add(t);
    }

    fn wants_slot_observations(&self) -> bool {
        self.inner.wants_slot_observations()
    }

    fn observe_slot(&mut self, addr: u64, is_store: bool, now: u64) {
        let t = Instant::now();
        self.inner.observe_slot(addr, is_store, now);
        self.clocks.observe.add(t);
    }
}

/// A slot stream that times every `next` and forwards it unchanged.
pub struct TimedStream<I> {
    inner: I,
    clocks: Rc<Clocks>,
}

impl<I> TimedStream<I> {
    /// Wraps `inner`, accumulating into `clocks`.
    pub fn new(inner: I, clocks: Rc<Clocks>) -> Self {
        Self { inner, clocks }
    }
}

impl<I: Iterator<Item = Slot>> Iterator for TimedStream<I> {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        let t = Instant::now();
        let s = self.inner.next();
        if s.is_some() {
            self.clocks.stream.add(t);
        }
        s
    }
}

/// The per-workload device seed `melody::run_workload` derives (an
/// FNV-1a fold of the workload name into the run seed).
pub fn workload_seed(base: u64, name: &str) -> u64 {
    let mut h: u64 = base ^ 0x6d656c6f6479; // "melody"
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The core configuration `melody::run_workload` uses for `workload`.
pub(crate) fn core_config(
    platform: &Platform,
    workload: &WorkloadSpec,
    opts: &RunOptions,
) -> CoreConfig {
    let scaled = platform.smp_scaled(workload.threads);
    let ipc_peak = scaled.ipc_peak;
    let mut cfg = CoreConfig::new(scaled);
    cfg.prefetchers = opts.prefetchers;
    cfg.sample_interval_ns = opts.sample_interval_ns;
    cfg.frontend_bound = workload.frontend_bound;
    cfg.ilp = (workload.ilp * workload.threads as f64).min(ipc_peak);
    cfg.serialize_frac = workload.serialize_frac;
    cfg
}

/// The functional-warming ranges `melody::run_workload` applies before
/// timing: per phase, the part of the working set a steady-state cache
/// of `cap` bytes holds, largest set first, duplicates dropped.
pub(crate) fn warm_ranges(workload: &WorkloadSpec, cap: u64) -> Vec<(u64, u64)> {
    let mut phases: Vec<_> = workload.phases.iter().collect();
    phases.sort_by_key(|p| std::cmp::Reverse(p.working_set));
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for p in phases {
        let ws = p.working_set;
        let range = match p.pattern {
            Pattern::Skewed { hot_bytes, .. } if ws > cap => (0, hot_bytes.min(cap)),
            _ if ws <= cap => (0, ws),
            _ => (ws - cap, ws),
        };
        if !ranges.contains(&range) {
            ranges.push(range);
        }
    }
    ranges
}

/// Replays `melody::run_workload` with a span around each step.
///
/// The `spa-guided` policy is refused: its guide synthesis is private to
/// the library and cannot be repeated from outside.
pub fn run_workload(
    platform: &Platform,
    device: &DeviceSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
    rec: &Recorder,
    clocks: &Rc<Clocks>,
) -> Result<RunResult, String> {
    if opts.fidelity == Fidelity::Fast {
        return Ok(rec.span("spa.interval", || {
            melody_spa::run_interval(
                &platform.smp_scaled(workload.threads),
                &device.analytic_profile(),
                workload,
                opts.mem_refs,
                opts.prefetchers,
            )
        }));
    }
    if let DeviceSpec::Tiered { tiering, .. } = device {
        if tiering.policy == PolicyKind::SpaGuided && tiering.guide.is_empty() {
            return Err("spa-guided tiering cannot be replayed outside the library".into());
        }
    }
    let cfg = core_config(platform, workload, opts);
    let seed = workload_seed(opts.seed, &workload.name);
    let mut core = rec.span("cpu.setup", || {
        let dev = TimedDevice::new(device.build(seed), Rc::clone(clocks));
        Core::new(cfg, Box::new(dev))
    });
    for (start, end) in warm_ranges(workload, core.l3_capacity_bytes()) {
        rec.span("cpu.warm", || core.warm(start, end));
    }
    let stream = TimedStream::new(
        SlotStream::new(workload, opts.seed, opts.mem_refs),
        Rc::clone(clocks),
    );
    let _run = rec.enter("cpu.engine");
    let before = clocks.snapshot();
    let result = match opts.fidelity {
        Fidelity::Sampled => core.run_sampled(stream, opts.sampling),
        _ => core.run(stream),
    };
    clocks.charge_since(before, rec);
    Ok(result)
}

/// Replays `melody::run_pair`: the local run, the target run, and the
/// Spa breakdown of the difference.
pub fn run_pair(
    platform: &Platform,
    local: &DeviceSpec,
    target: &DeviceSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
    rec: &Recorder,
    clocks: &Rc<Clocks>,
) -> Result<PairOutcome, String> {
    let local_run = run_workload(platform, local, workload, opts, rec, clocks)?;
    let target_run = run_workload(platform, target, workload, opts, rec, clocks)?;
    let (slowdown, breakdown) = rec.span("spa.breakdown", || {
        (
            target_run.slowdown_vs(&local_run),
            melody_spa::breakdown(&local_run.counters, &target_run.counters),
        )
    });
    Ok(PairOutcome {
        workload: workload.name.clone(),
        suite: workload.suite,
        slowdown,
        breakdown,
        local: local_run,
        target: target_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use melody::experiments::tiering::phased_workload;
    use melody_mem::{presets, TieringConfig};
    use melody_workloads::registry;

    fn opts(mem_refs: u64) -> RunOptions {
        RunOptions {
            mem_refs,
            fidelity: Fidelity::Detailed,
            ..Default::default()
        }
    }

    fn wrapped(
        platform: &Platform,
        device: &DeviceSpec,
        w: &WorkloadSpec,
        o: &RunOptions,
    ) -> (RunResult, Rc<Clocks>) {
        let clocks = Rc::new(Clocks::default());
        let rec = Recorder::new();
        let r = run_workload(platform, device, w, o, &rec, &clocks).expect("replay runs");
        (r, clocks)
    }

    #[test]
    fn timed_device_is_transparent_on_cxl_b() {
        let platform = Platform::emr2s();
        let w = registry::by_name("605.mcf").expect("mcf");
        let o = opts(6_000);
        let plain = melody::run_workload(&platform, &presets::cxl_b(), &w, &o);
        let (timed, clocks) = wrapped(&platform, &presets::cxl_b(), &w, &o);
        assert_eq!(plain.counters, timed.counters);
        assert_eq!(
            serde_json::to_string(&plain).expect("plain"),
            serde_json::to_string(&timed).expect("timed")
        );
        assert!(clocks.access.count() > 0 && clocks.stream.count() > 0);
        assert_eq!(clocks.observe.count(), 0, "a plain device observes nothing");
    }

    #[test]
    fn timed_device_is_transparent_under_tiering_and_still_migrates() {
        let platform = Platform::skx2s();
        let local = melody::campaign::local_for_platform(&platform);
        let tiered =
            presets::cxl_b().with_tiering(TieringConfig::new(PolicyKind::LruHotness), local);
        let w = phased_workload();
        let o = opts(64_000);
        let plain = melody::run_workload(&platform, &tiered, &w, &o);
        let ((timed, clocks), _events, _dropped, metrics) =
            melody::exec::traced(|| wrapped(&platform, &tiered, &w, &o));
        assert_eq!(plain.counters, timed.counters);
        assert!(
            clocks.observe.count() > 0,
            "observations reach the tiered device"
        );
        let migrations = metrics
            .counters
            .get("tier.migrations_total")
            .copied()
            .unwrap_or(0);
        assert!(migrations > 0, "the wrapped tiered device still migrates");
    }

    #[test]
    fn replayed_pairs_match_the_library_at_every_tier() {
        let platform = Platform::spr2s();
        let w = registry::by_name("519.lbm").expect("lbm");
        for fidelity in [Fidelity::Detailed, Fidelity::Sampled, Fidelity::Fast] {
            let o = RunOptions {
                fidelity,
                ..opts(20_000)
            };
            let local = presets::local_spr();
            let target = presets::cxl_c().with_numa_hop();
            let lib = melody::run_pair(&platform, &local, &target, &w, &o);
            let rec = Recorder::new();
            let clocks = Rc::new(Clocks::default());
            let replay =
                run_pair(&platform, &local, &target, &w, &o, &rec, &clocks).expect("replay");
            assert_eq!(
                serde_json::to_string(&lib).expect("lib"),
                serde_json::to_string(&replay).expect("replay"),
                "{fidelity}"
            );
        }
    }
}
