//! Differential test suite for the online tiering policy engine.
//!
//! The contract under test, policy by policy:
//!
//! - `static` is *exactly* today's behavior: the CLI with `--policy
//!   static` emits byte-identical output to the same invocation with no
//!   flag at all (text and `--json`), because the inert spelling lowers
//!   to the absence of a tiering wrapper;
//! - `lru-hotness` on the phased hot/cold workload beats the static
//!   CXL-heavy placement by a gated margin and never beats all-local —
//!   migration helps, but it cannot manufacture bandwidth;
//! - every policy is deterministic across worker counts: a campaign
//!   with a `policies` axis serializes byte-identically at `--jobs 1`
//!   and `--jobs 4`;
//! - an unknown policy name is an exit-2 error listing the valid
//!   spellings, through the CLI and through the campaign server (same
//!   convention as topology validation errors);
//! - a tiering layer nested under any other device wrapper still sees
//!   the core's per-reference stream and migrates.

use std::cell::RefCell;
use std::process::Command;
use std::rc::Rc;

use melody::campaign::{run_campaign, CampaignSpec, Shard};
use melody::exec::CellPolicy;
use melody::experiments::tiering::{phased_workload, tiering_config};
use melody::journal::Journal;
use melody::prelude::*;
use melody_mem::{
    AccessBreakdown, CompositeDevice, CpmuDevice, DeviceStats, MemRequest, NumaHopConfig,
    PolicyKind, SwitchConfig, TieredDevice, TieringConfig, POLICIES,
};

fn melody_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_melody"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("melody-policy-{name}-{}", std::process::id()));
    p
}

/// `--policy static` is byte-identical to no flag on `melody run`, both
/// the text report and the `--json` insight document; an adaptive
/// policy on the same invocation produces *different* bytes (the flag
/// is not silently ignored).
#[test]
fn static_policy_cli_output_is_byte_identical_to_no_flag() {
    let run = |extra: &[&str], json: bool| -> (Vec<u8>, i32) {
        let mut args = vec!["run", "605.mcf", "cxl-b", "--refs", "4000"];
        if json {
            args.push("--json");
        }
        args.extend_from_slice(extra);
        let out = melody_bin().args(&args).output().expect("run melody");
        (out.stdout, out.status.code().unwrap_or(-1))
    };
    for json in [false, true] {
        let (plain, code) = run(&[], json);
        assert_eq!(code, 0);
        let (statik, code) = run(&["--policy", "static"], json);
        assert_eq!(code, 0);
        assert_eq!(
            plain, statik,
            "--policy static must be byte-identical to no flag (json={json})"
        );
    }
    let (plain, _) = run(&[], false);
    let (adaptive, code) = run(&["--policy", "lru-hotness"], false);
    assert_eq!(code, 0);
    assert_ne!(
        plain, adaptive,
        "an adaptive policy must actually change the run"
    );
}

/// The adaptive-policy benefit gate, from the integration surface: on
/// the phased hot/cold workload over CXL-B, `lru-hotness` recovers a
/// real fraction of the static placement's slowdown, moves real pages,
/// and still cannot beat the all-local baseline.
#[test]
fn lru_hotness_beats_static_and_never_beats_all_local() {
    let platform = Platform::skx2s();
    let local = melody::campaign::local_for_platform(&platform);
    let cxl = presets::cxl_b();
    let w = phased_workload();
    let opts = RunOptions {
        mem_refs: 64_000,
        ..Default::default()
    };
    let run_policy = |kind: PolicyKind| {
        let target = cxl
            .clone()
            .with_tiering(tiering_config(kind), local.clone());
        let (pair, _events, _dropped, metrics) =
            melody::exec::traced(|| run_pair(&platform, &local, &target, &w, &opts));
        let migrations = metrics
            .counters
            .get("tier.migrations_total")
            .copied()
            .unwrap_or(0);
        (pair.slowdown, migrations)
    };
    let (static_slowdown, static_migrations) = run_policy(PolicyKind::Static);
    assert_eq!(static_migrations, 0, "static never migrates");
    assert!(
        static_slowdown > 0.10,
        "the phased workload must hurt on CXL-B: {static_slowdown}"
    );
    let (lru_slowdown, lru_migrations) = run_policy(PolicyKind::LruHotness);
    assert!(lru_migrations > 0, "lru-hotness must move pages");
    assert!(
        lru_slowdown < static_slowdown * 0.75,
        "lru-hotness must recover >25% of the static slowdown: {lru_slowdown} vs {static_slowdown}"
    );
    assert!(
        lru_slowdown > -0.005,
        "migration cannot beat the all-local baseline: {lru_slowdown}"
    );
}

/// Every policy's campaign cells are byte-identical at any worker
/// count: the tracker, the migration schedule, and the paced copy
/// traffic are all deterministic functions of the cell inputs.
#[test]
fn policy_cells_are_stable_across_jobs() {
    let spec = CampaignSpec {
        name: "policy-jobs-identity".into(),
        platforms: vec!["skx2s".into()],
        devices: vec!["cxl-b".into()],
        workloads: vec!["605.mcf".into()],
        faults: vec![],
        scale: None,
        mem_refs: Some(4_000),
        seed: None,
        fidelity: None,
        sample_warmup: None,
        sample_window: None,
        sample_period: None,
        topologies: vec![],
        policies: POLICIES.iter().map(|p| p.to_string()).collect(),
        page_bytes: None,
        migrate_budget_gbps: None,
    };
    let run_at = |jobs: usize| {
        melody::exec::set_jobs(jobs);
        let mut j = Journal::in_memory();
        let r = run_campaign(&spec, Shard::full(), &mut j, None, &CellPolicy::default())
            .expect("campaign")
            .report;
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.rows.len(), POLICIES.len(), "one cell per policy");
        serde_json::to_string(&r).expect("report serializes")
    };
    let serial = run_at(1);
    let parallel = run_at(4);
    melody::exec::set_jobs(0); // restore default for other tests
    assert_eq!(serial, parallel, "policy results depend on --jobs");
}

/// Unknown policy names are exit-2 errors that list the valid
/// spellings — on the direct CLI, on `submit` against a live server,
/// and `status` for the never-created job stays a clean typed error.
#[test]
fn unknown_policy_is_exit_2_with_the_valid_list() {
    // Direct CLI: `run --policy mru`.
    let out = melody_bin()
        .args([
            "run", "605.mcf", "cxl-b", "--refs", "1000", "--policy", "mru",
        ])
        .output()
        .expect("run melody");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for p in POLICIES {
        assert!(stderr.contains(p), "error must list `{p}`: {stderr}");
    }

    // Server path: a spec with an unknown policy is a 400 bad-spec whose
    // message carries the same list, `submit` exits 2 with it, and
    // `status --json` on the never-created job id is a clean exit 2.
    let state = tmp("unknown-policy-state");
    let handle = Server::start(ServeConfig {
        port: 0,
        state_dir: state.clone(),
        ..Default::default()
    })
    .expect("server starts");
    let addr = handle.addr();
    let spec_path = tmp("unknown-policy-spec.json");
    std::fs::write(
        &spec_path,
        "{\"name\":\"bad-policy\",\"platforms\":[\"emr2s\"],\"devices\":[\"cxl-a\"],\
         \"workloads\":[\"605.mcf\"],\"mem_refs\":2000,\"policies\":[\"mru\"]}",
    )
    .expect("write spec");
    let out = melody_bin()
        .args([
            "submit",
            spec_path.to_str().expect("utf8"),
            "--server",
            &addr,
        ])
        .output()
        .expect("run melody submit");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mru"), "{stderr}");
    for p in POLICIES {
        assert!(stderr.contains(p), "submit error must list `{p}`: {stderr}");
    }
    let out = melody_bin()
        .args(["status", "job-000001", "--json", "--server", &addr])
        .output()
        .expect("run melody status");
    assert_eq!(
        out.status.code(),
        Some(2),
        "status of the rejected submission's job id exits 2"
    );
    handle.drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&spec_path);
}

/// A [`TieredDevice`] the test keeps a handle on after a wrapper takes
/// ownership of the box, so its own stats stay readable.
struct SharedTiered(Rc<RefCell<TieredDevice>>);

impl MemoryDevice for SharedTiered {
    fn access(&mut self, req: &MemRequest) -> AccessBreakdown {
        self.0.borrow_mut().access(req)
    }

    fn name(&self) -> &str {
        "tiered"
    }

    fn nominal_latency_ns(&self) -> f64 {
        self.0.borrow().nominal_latency_ns()
    }

    fn stats(&self) -> DeviceStats {
        self.0.borrow().stats()
    }

    fn fast_forward(&mut self, now: u64) {
        self.0.borrow_mut().fast_forward(now);
    }

    fn wants_slot_observations(&self) -> bool {
        self.0.borrow().wants_slot_observations()
    }

    fn observe_slot(&mut self, addr: u64, is_store: bool, now: u64) {
        self.0.borrow_mut().observe_slot(addr, is_store, now);
    }
}

/// Every device wrapper forwards slot observations to a nested tiering
/// layer, routed the way its `access` routes: driven by nothing but
/// `observe_slot` on a few hot pages, the nested `TieredDevice` promotes
/// them and puts the copies on its own devices, as the unwrapped one
/// (the control) does.
#[test]
fn slot_observations_reach_a_tiering_layer_under_every_wrapper() {
    const BOUNDARY: u64 = 1 << 20;
    type Wrap = fn(Box<dyn MemoryDevice>) -> Box<dyn MemoryDevice>;
    let cases: [(&str, u64, Wrap); 6] = [
        ("unwrapped", 0, |t| t),
        ("numa", 0, |t| {
            let hop = NumaHopConfig::plain(70.0, 60.0);
            Box::new(CompositeDevice::hop(hop, "NUMA", t, 5))
        }),
        ("interleaved", 0, |t| {
            Box::new(CompositeDevice::interleaved(
                vec![t, presets::cxl_b().build(6)],
                256,
            ))
        }),
        ("split", BOUNDARY, |t| {
            let fast = presets::local_emr().build(7);
            Box::new(CompositeDevice::split(fast, t, BOUNDARY))
        }),
        ("switch", 0, |t| {
            let other = presets::cxl_b().build(8);
            Box::new(CompositeDevice::switch(
                SwitchConfig::default(),
                256,
                vec![t, other],
            ))
        }),
        ("cpmu", 0, |t| Box::new(CpmuDevice::new(t))),
    ];
    for (name, base, wrap) in cases {
        let mut cfg = TieringConfig::new(PolicyKind::LruHotness);
        cfg.fast_bytes = 16 * 4096;
        let slow = presets::cxl_b();
        let tiered = Rc::new(RefCell::new(TieredDevice::new(
            cfg.clone(),
            presets::local_emr().build(1),
            slow.build(2),
            slow.analytic_profile().total_gbps,
        )));
        let mut dev = wrap(Box::new(SharedTiered(tiered.clone())));
        assert!(dev.wants_slot_observations(), "{name}: asks for the stream");

        // Every line of 4 hot pages, twice per epoch, over 4 epochs.
        let epoch_ps = cfg.epoch_ns * 1_000;
        let mut t = 0;
        for _ in 0..4 {
            for _ in 0..2 {
                for line in 0..4 * 4096 / 64 {
                    dev.observe_slot(base + line * 64, false, t);
                    t += 10_000;
                }
            }
            t = (t / epoch_ps + 1) * epoch_ps;
        }

        let inner = tiered.borrow();
        let c = inner.counters();
        assert!(c.promoted > 0, "{name}: no promotion, {c:?}");
        let s = inner.stats();
        assert!(
            s.reads > 0 && s.writes > 0,
            "{name}: no migration copy traffic, {s:?}"
        );
    }

    // Wrappers of plain devices still ask for nothing.
    let plain = CompositeDevice::hop(
        NumaHopConfig::plain(70.0, 60.0),
        "NUMA",
        presets::cxl_b().build(3),
        4,
    );
    assert!(!plain.wants_slot_observations());
}
