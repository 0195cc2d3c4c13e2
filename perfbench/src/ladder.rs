//! The isolated per-layer ladder: each layer alone on a fixed input
//! derived from the seed, the same for every workload.
//!
//! - L0: one seeded 70/30 demand-read/writeback request stream through
//!   each device variant (`Imc`, `Cxl`, `Hopped`, `Interleaved`,
//!   `Switch`, `Tiered` lru-hotness), in accesses per second.
//! - L1: the CPU engine on one slot stream at the detailed and sampled
//!   tiers, in slots per second, and the per-run core set-up
//!   (`Core::new` plus functional warming).
//! - The interval model per call, and the per-cell bookkeeping: key,
//!   JSON round trip, cache get and put, journal append.
//! - L4: server round trips on an ephemeral port, per call.
//!
//! Every timed phase repeats until it has run at least [`MIN_PHASE`],
//! and reports the median of its passes.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use melody::cache::{fingerprint, ResultCache};
use melody::campaign::{cell_fingerprint, pair_config_json, CampaignSpec};
use melody::journal::Journal;
use melody::{PairOutcome, RunOptions};
use melody_cpu::{Core, Fidelity, Platform, SamplingParams};
use melody_mem::{
    presets, DeviceSpec, MemRequest, PolicyKind, RequestKind, TieringConfig, TopologySpec,
};
use melody_workloads::{registry, SlotStream, WorkloadSpec};

use crate::metrics::median;
use crate::serve;
use crate::timed::{self, workload_seed};

/// Shortest accumulated duration of one timed phase.
const MIN_PHASE: Duration = Duration::from_millis(60);

/// Requests per device pass.
const DEVICE_REQUESTS: usize = 100_000;

/// Runs `pass` (which returns its operation count and the seconds its
/// timed part took) until at least three passes and [`MIN_PHASE`] have
/// accumulated; returns the median per-pass rate in operations/second.
fn rate(mut pass: impl FnMut() -> (u64, f64)) -> f64 {
    let mut rates = Vec::new();
    let mut total = 0.0;
    while rates.len() < 3 || total < MIN_PHASE.as_secs_f64() {
        let (ops, secs) = pass();
        total += secs;
        rates.push(ops as f64 / secs.max(1e-9));
    }
    median(&rates).expect("at least one pass")
}

/// Times `op` over batches of `batch` calls until [`MIN_PHASE`]; returns
/// the median microseconds per call.
fn us_per_op(batch: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    1e6 / rate(|| {
        let t = Instant::now();
        for _ in 0..batch {
            op(i);
            i += 1;
        }
        (batch, t.elapsed().as_secs_f64())
    })
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The L0 request stream: 70 % demand reads, 30 % writebacks, uniform
/// over 1 GiB, one request every 10 ns (6.4 GB/s offered, below every
/// variant's capacity, so queues stay bounded).
pub fn device_requests(seed: u64, n: usize) -> Vec<MemRequest> {
    let mut x = seed;
    (0..n)
        .map(|i| {
            let r = splitmix(&mut x);
            let kind = if r % 10 < 3 {
                RequestKind::WriteBack
            } else {
                RequestKind::DemandRead
            };
            let line = (r >> 8) % (1 << 24);
            MemRequest::new(line * 64, kind, i as u64 * 10_000)
        })
        .collect()
}

/// The six device variants of the L0 ladder.
pub fn ladder_devices() -> Result<Vec<(&'static str, DeviceSpec)>, String> {
    let switched: TopologySpec = serde_json::from_str(
        r#"{"name": "cxl-b-switched",
            "nodes": [{"id": "h", "kind": "host"},
                      {"id": "sw0", "kind": "switch", "latency_ns": 190.0, "upstream_gbps": 22.0, "credits": 24},
                      {"id": "e0", "kind": "expander", "device": "cxl-b"},
                      {"id": "e1", "kind": "expander", "device": "cxl-b"}],
            "edges": [{"from": "h", "to": "sw0"}, {"from": "sw0", "to": "e0"}, {"from": "sw0", "to": "e1"}]}"#,
    )
    .map_err(|e| format!("switch topology: {e}"))?;
    Ok(vec![
        ("mem.imc.maccess_per_s", presets::local_emr()),
        ("mem.cxl.maccess_per_s", presets::cxl_b()),
        ("mem.hopped.maccess_per_s", presets::cxl_b().with_numa_hop()),
        (
            "mem.interleaved.maccess_per_s",
            presets::cxl_d().interleaved(2),
        ),
        ("mem.switch.maccess_per_s", switched.validate()?.lower()),
        (
            "mem.tiered.maccess_per_s",
            presets::cxl_b().with_tiering(
                TieringConfig::new(PolicyKind::LruHotness),
                presets::local_emr(),
            ),
        ),
    ])
}

/// Accesses per second of one device variant on `reqs`; a device that
/// asks for slot observations also observes every request.
fn device_rate(spec: &DeviceSpec, reqs: &[MemRequest], seed: u64) -> f64 {
    rate(|| {
        let mut dev = spec.build(seed);
        let observe = dev.wants_slot_observations();
        let t = Instant::now();
        for r in reqs {
            if observe {
                dev.observe_slot(r.addr, r.kind == RequestKind::WriteBack, r.issue);
            }
            black_box(dev.access(r));
        }
        (reqs.len() as u64, t.elapsed().as_secs_f64())
    })
}

/// A core built and warmed as `melody::run_workload` builds and warms
/// it.
fn warmed_core(platform: &Platform, device: &DeviceSpec, w: &WorkloadSpec, seed: u64) -> Core {
    let opts = RunOptions {
        seed,
        ..Default::default()
    };
    let cfg = timed::core_config(platform, w, &opts);
    let mut core = Core::new(cfg, device.build(workload_seed(seed, &w.name)));
    for (start, end) in timed::warm_ranges(w, core.l3_capacity_bytes()) {
        core.warm(start, end);
    }
    core
}

/// Slots per second of the engine on one stream at `fidelity`.
fn engine_rate(seed: u64, mem_refs: u64, fidelity: Fidelity) -> f64 {
    let platform = Platform::emr2s();
    let device = presets::cxl_b();
    let w = registry::by_name("605.mcf").expect("605.mcf is in the registry");
    let slots = SlotStream::new(&w, seed, mem_refs).count() as u64;
    rate(|| {
        let core = warmed_core(&platform, &device, &w, seed);
        let stream = SlotStream::new(&w, seed, mem_refs);
        let t = Instant::now();
        let r = match fidelity {
            Fidelity::Sampled => core.run_sampled(stream, SamplingParams::default()),
            _ => core.run(stream),
        };
        let secs = t.elapsed().as_secs_f64();
        black_box(r);
        (slots, secs)
    })
}

/// Runs the whole ladder; `dir` is scratch space for the cache,
/// journal and server state.
pub fn run(seed: u64, dir: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();

    let reqs = device_requests(seed, DEVICE_REQUESTS);
    for (name, spec) in ladder_devices()? {
        out.push((name, device_rate(&spec, &reqs, seed) / 1e6));
    }

    out.push((
        "cpu.detailed.mslots_per_s",
        engine_rate(seed, 40_000, Fidelity::Detailed) / 1e6,
    ));
    out.push((
        "cpu.sampled.mslots_per_s",
        engine_rate(seed, 200_000, Fidelity::Sampled) / 1e6,
    ));
    let mcf = registry::by_name("605.mcf").expect("605.mcf is in the registry");
    let setup_us = us_per_op(1, |_| {
        black_box(warmed_core(
            &Platform::emr2s(),
            &presets::cxl_b(),
            &mcf,
            seed,
        ));
    });
    out.push(("cpu.setup_ms", setup_us / 1e3));

    let all = registry::all();
    let spr = Platform::spr2s();
    let profile = presets::cxl_b().analytic_profile();
    let interval_us = us_per_op(all.len() as u64, |i| {
        let w = &all[i as usize % all.len()];
        black_box(melody_spa::run_interval(
            &spr.smp_scaled(w.threads),
            &profile,
            w,
            20_000,
            true,
        ));
    });
    out.push(("spa.interval.us_per_call", interval_us));

    let spec = CampaignSpec {
        seed: Some(seed),
        ..serde_json::from_str(
            r#"{"name": "ladder", "platforms": ["spr2s"], "devices": ["local", "cxl-b"],
                "scale": "full", "fidelity": "fast", "mem_refs": 20000}"#,
        )
        .map_err(|e| format!("ladder spec: {e}"))?
    };
    let cells = spec.expand()?;
    let key_us = us_per_op(cells.len() as u64, |i| {
        let c = &cells[i as usize % cells.len()];
        black_box(cell_fingerprint(
            "pair",
            &pair_config_json(&c.platform, &c.local, &c.target, &c.workload, &c.opts),
        ));
    });
    out.push(("campaign.key.us_per_cell", key_us));

    let opts = RunOptions {
        mem_refs: 4_000,
        seed,
        fidelity: Fidelity::Detailed,
        ..Default::default()
    };
    let outcome = melody::run_pair(
        &Platform::emr2s(),
        &presets::local_emr(),
        &presets::cxl_b(),
        &mcf,
        &opts,
    );
    let json_us = us_per_op(64, |_| {
        let text = serde_json::to_string(&outcome).expect("PairOutcome serializes");
        let back: PairOutcome = serde_json::from_str(&text).expect("PairOutcome round-trips");
        black_box(back);
    });
    out.push(("campaign.json.us_per_cell", json_us));

    let payload = serde_json::to_string(&outcome).expect("PairOutcome serializes");
    let cache_dir = dir.join("cache");
    let cache = ResultCache::open(&cache_dir).map_err(|e| format!("ladder cache: {e}"))?;
    let key = |i: u64| fingerprint(&["ladder", &seed.to_string(), &i.to_string()]);
    let mut written = 0u64;
    let put_us = us_per_op(256, |i| {
        cache.put(&key(i), &payload).expect("ladder cache put");
        written = written.max(i + 1);
    });
    let get_us = us_per_op(256, |i| {
        black_box(cache.get(&key(i % written)).expect("ladder cache hit"));
    });
    out.push(("cache.get.us_per_op", get_us));
    out.push(("cache.put.us_per_op", put_us));

    let mut journal =
        Journal::open(dir.join("journal.jsonl")).map_err(|e| format!("ladder journal: {e}"))?;
    let record_us = us_per_op(256, |i| {
        journal
            .record(&key(i), &payload)
            .expect("ladder journal append");
    });
    out.push(("journal.record.us_per_op", record_us));

    out.extend(serve::ladder(seed, &dir.join("serve"))?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_stream_is_seeded_and_mixed() {
        let a = device_requests(7, 10_000);
        assert_eq!(a, device_requests(7, 10_000));
        assert_ne!(a, device_requests(8, 10_000));
        let writes = a
            .iter()
            .filter(|r| r.kind == RequestKind::WriteBack)
            .count();
        assert!((2_700..3_300).contains(&writes), "{writes} writebacks");
        assert!(a.windows(2).all(|w| w[0].issue < w[1].issue));
    }

    #[test]
    fn every_device_variant_builds() {
        let devices = ladder_devices().expect("ladder devices");
        assert_eq!(devices.len(), 6);
        let tiered = devices[5].1.build(1);
        assert!(tiered.wants_slot_observations());
    }
}
