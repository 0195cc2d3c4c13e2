//! Differential and fuzz tests for the campaign engine and its
//! content-addressed result cache: warm, cold, resumed and sharded runs
//! must serialize byte-identically; cells sharing a local-DRAM baseline
//! must resolve, and fail, as each cell does alone; config changes must
//! re-simulate exactly the changed cells; corrupted cache entries must
//! degrade to misses, never panics.

use std::time::Duration;

use melody::cache::{fingerprint, ResultCache};
use melody::campaign::{
    local_for_platform, resolve, run_campaign, CampaignCell, CampaignReport, CampaignSpec, Shard,
};
use melody::exec::{run_cells, CellPolicy};
use melody::experiments::{grid, Scale};
use melody::journal::Journal;
use melody::{run_pair, PairOutcome, RunOptions};
use melody_mem::{presets, DeviceSpec};
use melody_sim::SimRng;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("melody-campaign-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        name: "tiny".into(),
        platforms: vec!["emr2s".into()],
        devices: vec!["numa".into(), "cxl-a".into()],
        workloads: vec!["605.mcf".into(), "541.leela".into()],
        faults: vec![],
        scale: None,
        mem_refs: Some(4_000),
        seed: None,
        fidelity: None,
        sample_warmup: None,
        sample_window: None,
        sample_period: None,
        topologies: vec![],
        policies: vec![],
        page_bytes: None,
        migrate_budget_gbps: None,
    }
}

/// A host with `n` expanders of device class `device`, as the campaign
/// JSON layer would parse it.
fn topology(name: &str, device: &str, n: usize) -> melody_mem::TopologySpec {
    let mut nodes = vec![r#"{"id": "h", "kind": "host"}"#.to_string()];
    let mut edges = Vec::new();
    for i in 0..n {
        nodes.push(format!(
            r#"{{"id": "e{i}", "kind": "expander", "device": "{device}"}}"#
        ));
        edges.push(format!(r#"{{"from": "h", "to": "e{i}"}}"#));
    }
    let json = format!(
        r#"{{"name": "{name}", "nodes": [{}], "edges": [{}]}}"#,
        nodes.join(", "),
        edges.join(", ")
    );
    serde_json::from_str(&json).expect("valid topology JSON")
}

fn run(spec: &CampaignSpec, shard: Shard, cache: Option<&ResultCache>) -> CampaignReport {
    let mut j = Journal::in_memory();
    let r = run_campaign(spec, shard, &mut j, cache, &CellPolicy::default())
        .expect("campaign")
        .report;
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    r
}

fn to_json(r: &CampaignReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

#[test]
fn warm_run_is_byte_identical_to_cold_and_fully_cached() {
    let dir = tmp_dir("warmcold");
    let spec = tiny_spec();

    let no_cache = run(&spec, Shard::full(), None);
    let cold_cache = ResultCache::open(&dir).expect("open");
    let cold = run(&spec, Shard::full(), Some(&cold_cache));
    assert_eq!(cold_cache.stats().hits, 0);
    assert_eq!(cold_cache.stats().misses, 4);

    // Fresh handle on the same directory: all four cells load warm.
    let warm_cache = ResultCache::open(&dir).expect("reopen");
    let warm = run(&spec, Shard::full(), Some(&warm_cache));
    assert_eq!(warm_cache.stats().hits, 4, "{:?}", warm_cache.stats());
    assert_eq!(warm_cache.stats().misses, 0);
    assert!((warm_cache.stats().hit_rate() - 1.0).abs() < 1e-12);

    assert_eq!(
        to_json(&no_cache),
        to_json(&cold),
        "cache must not perturb output"
    );
    assert_eq!(
        to_json(&cold),
        to_json(&warm),
        "warm == cold, byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fidelity_is_part_of_cell_identity() {
    // A cache populated by a sampled (or fast) campaign must never serve
    // a detailed request, and vice versa: fidelity and the sampling
    // schedule are inside the cell fingerprint.
    let dir = tmp_dir("fidelity-keys");
    let detailed = tiny_spec();
    let sampled = CampaignSpec {
        fidelity: Some("sampled".into()),
        ..tiny_spec()
    };
    let fast = CampaignSpec {
        fidelity: Some("fast".into()),
        ..tiny_spec()
    };

    let cache = ResultCache::open(&dir).expect("open");
    let _ = run(&sampled, Shard::full(), Some(&cache));
    assert_eq!(cache.stats().misses, 4, "cold sampled run misses all");

    // Detailed request against the sampled-populated cache: all misses.
    let c2 = ResultCache::open(&dir).expect("reopen");
    let _ = run(&detailed, Shard::full(), Some(&c2));
    assert_eq!(
        c2.stats().hits,
        0,
        "a sampled cell must never satisfy a detailed request"
    );
    assert_eq!(c2.stats().misses, 4);

    // Fast request likewise shares no keys with either prior tier.
    let c3 = ResultCache::open(&dir).expect("reopen");
    let _ = run(&fast, Shard::full(), Some(&c3));
    assert_eq!(c3.stats().hits, 0, "fast keys are distinct too");

    // A different sampling schedule is a different result: no hits even
    // at the same tier.
    let c4 = ResultCache::open(&dir).expect("reopen");
    let resampled = CampaignSpec {
        sample_window: Some(4096),
        ..sampled.clone()
    };
    let _ = run(&resampled, Shard::full(), Some(&c4));
    assert_eq!(c4.stats().hits, 0, "schedule change must re-simulate");

    // And each tier is a warm hit for itself.
    let c5 = ResultCache::open(&dir).expect("reopen");
    let again = run(&sampled, Shard::full(), Some(&c5));
    assert_eq!(c5.stats().hits, 4, "{:?}", c5.stats());
    assert_eq!(again.rows.len(), 4);

    // Cell keys differ pairwise across tiers at expansion time as well.
    let kd: Vec<_> = detailed
        .expand()
        .expect("expand")
        .into_iter()
        .map(|c| c.key)
        .collect();
    let ks: Vec<_> = sampled
        .expand()
        .expect("expand")
        .into_iter()
        .map(|c| c.key)
        .collect();
    let kf: Vec<_> = fast
        .expand()
        .expect("expand")
        .into_iter()
        .map(|c| c.key)
        .collect();
    for i in 0..kd.len() {
        assert_ne!(kd[i], ks[i]);
        assert_ne!(kd[i], kf[i]);
        assert_ne!(ks[i], kf[i]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn topology_is_part_of_cell_identity() {
    // Results simulated under one topology must never satisfy a request
    // for another: the lowered device spec (and with it the whole fabric
    // shape) is inside the cell fingerprint.
    let dir = tmp_dir("topology-keys");
    let base = CampaignSpec {
        devices: vec![],
        workloads: vec!["605.mcf".into()],
        ..tiny_spec()
    };
    let two_way = CampaignSpec {
        topologies: vec![topology("fabric", "cxl-b", 2)],
        ..base.clone()
    };
    let single = CampaignSpec {
        topologies: vec![topology("fabric", "cxl-b", 1)],
        ..base.clone()
    };

    let cache = ResultCache::open(&dir).expect("open");
    let _ = run(&two_way, Shard::full(), Some(&cache));
    assert_eq!(cache.stats().misses, 1, "cold 2-way run misses");

    // Same campaign name, same topology *name*, different shape: the
    // single-expander request must not hit the 2-way result.
    let c2 = ResultCache::open(&dir).expect("reopen");
    let _ = run(&single, Shard::full(), Some(&c2));
    assert_eq!(
        c2.stats().hits,
        0,
        "a 2-way cell must never satisfy a 1-way request"
    );

    // The same topology is a warm hit for itself.
    let c3 = ResultCache::open(&dir).expect("reopen");
    let again = run(&two_way, Shard::full(), Some(&c3));
    assert_eq!(c3.stats().hits, 1, "{:?}", c3.stats());
    assert_eq!(again.rows.len(), 1);
    assert_eq!(again.rows[0].device, "fabric");

    // Intentional sharing: the degenerate single-expander topology *is*
    // the plain device keyword — identical key, so a topology run warms
    // the cache for a plain `devices: ["cxl-b"]` run and vice versa.
    let plain = CampaignSpec {
        devices: vec!["cxl-b".into()],
        topologies: vec![],
        ..base.clone()
    };
    assert_eq!(
        plain.expand().expect("expand")[0].key,
        single.expand().expect("expand")[0].key,
        "degenerate topology shares the plain device's cell identity"
    );
    let c4 = ResultCache::open(&dir).expect("reopen");
    let _ = run(&plain, Shard::full(), Some(&c4));
    assert_eq!(
        c4.stats().hits,
        1,
        "plain run warm-hits the degenerate-topology cell"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn policy_is_part_of_cell_identity() {
    // Results simulated under one tiering policy must never satisfy a
    // request for another: the Tiered wrapper (policy, page size,
    // budget) lands in the target DeviceSpec and with it in the cell
    // fingerprint.
    let dir = tmp_dir("policy-keys");
    let base = CampaignSpec {
        devices: vec!["cxl-a".into()],
        workloads: vec!["605.mcf".into()],
        ..tiny_spec()
    };
    let lru = CampaignSpec {
        policies: vec!["lru-hotness".into()],
        ..base.clone()
    };
    let clock = CampaignSpec {
        policies: vec!["clock".into()],
        ..base.clone()
    };

    let cache = ResultCache::open(&dir).expect("open");
    let _ = run(&lru, Shard::full(), Some(&cache));
    assert_eq!(cache.stats().misses, 1, "cold lru run misses");

    // A different policy over the same grid shares no keys.
    let c2 = ResultCache::open(&dir).expect("reopen");
    let _ = run(&clock, Shard::full(), Some(&c2));
    assert_eq!(
        c2.stats().hits,
        0,
        "an lru-hotness cell must never satisfy a clock request"
    );

    // The same policy is a warm hit for itself, and the row names it.
    let c3 = ResultCache::open(&dir).expect("reopen");
    let again = run(&lru, Shard::full(), Some(&c3));
    assert_eq!(c3.stats().hits, 1, "{:?}", c3.stats());
    assert_eq!(again.rows[0].policy, "lru-hotness");

    // Tuning knobs are identity too: a different page size or budget
    // re-simulates.
    let big_pages = CampaignSpec {
        page_bytes: Some(8_192),
        ..lru.clone()
    };
    assert_ne!(
        lru.expand().expect("expand")[0].key,
        big_pages.expand().expect("expand")[0].key,
        "page size must be inside the fingerprint"
    );
    let throttled = CampaignSpec {
        migrate_budget_gbps: Some(2.0),
        ..lru.clone()
    };
    assert_ne!(
        lru.expand().expect("expand")[0].key,
        throttled.expand().expect("expand")[0].key,
        "migration budget must be inside the fingerprint"
    );

    // Intentional sharing: the inert `static` spelling *is* the
    // no-policy cell — identical key, so either spelling warms the
    // cache for the other.
    let statik = CampaignSpec {
        policies: vec!["static".into()],
        ..base.clone()
    };
    assert_eq!(
        base.expand().expect("expand")[0].key,
        statik.expand().expect("expand")[0].key,
        "static spelling shares the no-policy cell identity"
    );
    let c4 = ResultCache::open(&dir).expect("reopen");
    let _ = run(&statik, Shard::full(), Some(&c4));
    assert_eq!(c4.stats().misses, 1, "static cell is new to this cache");
    let c5 = ResultCache::open(&dir).expect("reopen");
    let plain = run(&base, Shard::full(), Some(&c5));
    assert_eq!(
        c5.stats().hits,
        1,
        "a no-policy run warm-hits the static-spelled cell"
    );
    assert_eq!(plain.rows[0].policy, "", "inert spelling lowers to empty");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_runs_merge_byte_identical_to_the_full_run() {
    let dir = tmp_dir("shards");
    let spec = tiny_spec();
    let full = run(&spec, Shard::full(), None);
    assert_eq!(full.rows.len(), 4);

    let cache = ResultCache::open(&dir).expect("open");
    let s0 = run(&spec, Shard::parse("0/2").expect("shard"), Some(&cache));
    let s1 = run(&spec, Shard::parse("1/2").expect("shard"), Some(&cache));
    assert_eq!(s0.total_cells, 4);
    assert_eq!(s0.rows.len() + s1.rows.len(), full.rows.len());

    // Interleave the shard rows back into expansion order (shard i of N
    // owns cells i, i+N, i+2N, ...).
    let mut merged = Vec::new();
    let (mut it0, mut it1) = (s0.rows.iter(), s1.rows.iter());
    for i in 0..full.rows.len() {
        merged.push(
            if i % 2 == 0 {
                it0.next().expect("shard 0 row")
            } else {
                it1.next().expect("shard 1 row")
            }
            .clone(),
        );
    }
    let merged_json = serde_json::to_string(&merged).expect("rows");
    let full_json = serde_json::to_string(&full.rows).expect("rows");
    assert_eq!(
        merged_json, full_json,
        "shard merge must equal the full run"
    );

    // A warm full run over the shard-populated cache is also identical.
    let warm_cache = ResultCache::open(&dir).expect("reopen");
    let warm = run(&spec, Shard::full(), Some(&warm_cache));
    assert_eq!(warm_cache.stats().misses, 0, "shards covered every cell");
    assert_eq!(to_json(&warm), to_json(&full));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_cell_config_re_simulates_exactly_the_new_cells() {
    let dir = tmp_dir("invalidate");
    let spec = tiny_spec();
    let cold = ResultCache::open(&dir).expect("open");
    run(&spec, Shard::full(), Some(&cold));

    // Adding one workload leaves the four existing cells warm and
    // simulates exactly the two new (device × workload) cells.
    let mut grown = tiny_spec();
    grown.workloads.push("bfs-web".into());
    let c = ResultCache::open(&dir).expect("reopen");
    let r = run(&grown, Shard::full(), Some(&c));
    assert_eq!(r.rows.len(), 6);
    assert_eq!(c.stats().hits, 4, "{:?}", c.stats());
    assert_eq!(c.stats().misses, 2, "{:?}", c.stats());

    // Changing a run option (mem_refs) changes every fingerprint: the
    // whole campaign is a miss — a stale-result reuse would be silent
    // wrong answers.
    let mut retuned = tiny_spec();
    retuned.mem_refs = Some(5_000);
    let c2 = ResultCache::open(&dir).expect("reopen");
    run(&retuned, Shard::full(), Some(&c2));
    assert_eq!(c2.stats().hits, 0, "{:?}", c2.stats());
    assert_eq!(c2.stats().misses, 4, "{:?}", c2.stats());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_resume_backfills_the_cache() {
    let dir = tmp_dir("backfill");
    let spec = tiny_spec();

    // First run journals everything but has no cache.
    let mut j = Journal::in_memory();
    let a = run_campaign(&spec, Shard::full(), &mut j, None, &CellPolicy::default())
        .expect("campaign")
        .report;
    assert_eq!(j.len(), 4);

    // Resuming with the journal and an empty cache must not simulate
    // anything — and must seed the cache for journal-free runs.
    let c = ResultCache::open(&dir).expect("open");
    let b = run_campaign(
        &spec,
        Shard::full(),
        &mut j,
        Some(&c),
        &CellPolicy::default(),
    )
    .expect("campaign")
    .report;
    assert_eq!(to_json(&a), to_json(&b));

    let c2 = ResultCache::open(&dir).expect("reopen");
    let mut fresh_journal = Journal::in_memory();
    let d = run_campaign(
        &spec,
        Shard::full(),
        &mut fresh_journal,
        Some(&c2),
        &CellPolicy::default(),
    )
    .expect("campaign")
    .report;
    assert_eq!(c2.stats().misses, 0, "journal hits were backfilled");
    assert_eq!(to_json(&a), to_json(&d));
    let _ = std::fs::remove_dir_all(&dir);
}

/// On-disk entry path mirror of the documented cache layout
/// (`<root>/<key[0..2]>/<key>.json`).
fn entry_path(root: &std::path::Path, key: &str) -> std::path::PathBuf {
    root.join(&key[0..2]).join(format!("{key}.json"))
}

#[test]
fn fuzzed_payloads_roundtrip_byte_identically() {
    let dir = tmp_dir("fuzz-roundtrip");
    let c = ResultCache::open(&dir).expect("open");
    let mut rng = SimRng::seed_from(0xF022);
    for case in 0..200u64 {
        // Randomized cell-result-shaped payloads: nested JSON with the
        // float values a real cell carries (f64s survive Rust's
        // shortest-roundtrip formatting exactly).
        let f1 = f64::from_bits(rng.next_u64() >> 12); // finite by construction
        let f2 = rng.range_f64(-1.0e6, 1.0e6);
        let n = rng.next_u64();
        let s: String = (0..rng.below(20))
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect();
        let payload = format!(
            "{{\"slowdown\":{f1},\"lat\":{f2},\"count\":{n},\"name\":{s:?},\"nested\":[{f1},{f2}]}}"
        );
        let key = fingerprint(&["fuzz", &case.to_string()]);
        c.put(&key, &payload).expect("put");
        let loaded = c.get(&key).expect("hit");
        assert_eq!(loaded, payload, "case {case}: payload must round-trip");
        // Serialize -> deserialize -> re-serialize through the serde
        // Value layer is also byte-stable for these payloads.
        let v: serde::Value = serde_json::from_str(&loaded).expect("valid JSON");
        let re = serde_json::to_string(&v).expect("re-serialize");
        let v2: serde::Value = serde_json::from_str(&re).expect("still valid");
        assert_eq!(
            re,
            serde_json::to_string(&v2).expect("re-serialize"),
            "case {case}: fixpoint after one round-trip"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entries_are_misses_never_panics() {
    let dir = tmp_dir("fuzz-corrupt");
    let c = ResultCache::open(&dir).expect("open");
    let mut rng = SimRng::seed_from(0xBAD);
    let mut corrupt_seen = 0;
    for case in 0..100u64 {
        let key = fingerprint(&["corrupt", &case.to_string()]);
        c.put(&key, &format!("{{\"case\":{case}}}")).expect("put");
        let path = entry_path(&dir, &key);
        let bytes = std::fs::read(&path).expect("entry exists");
        // Random mutilation: truncate, bit-flip, or replace with noise.
        let mutated: Vec<u8> = match rng.below(3) {
            0 => bytes[..rng.below(bytes.len() as u64) as usize].to_vec(),
            1 => {
                let mut b = bytes.clone();
                let i = rng.below(b.len() as u64) as usize;
                b[i] ^= 1 << rng.below(8);
                b
            }
            _ => (0..bytes.len()).map(|_| rng.next_u64() as u8).collect(),
        };
        std::fs::write(&path, &mutated).expect("write corruption");
        let before = c.stats().corrupt;
        let expected = format!("{{\"case\":{case}}}");
        match c.get(&key) {
            // Invalid entry: counted corrupt, treated as a miss, and a
            // rewrite heals it.
            None => {
                assert_eq!(c.stats().corrupt, before + 1, "case {case}");
                corrupt_seen += 1;
                c.put(&key, &expected).expect("re-put");
                assert_eq!(
                    c.get(&key).as_deref(),
                    Some(expected.as_str()),
                    "case {case}: cache recovers after rewrite"
                );
            }
            // A single bit flip inside the payload *string* can leave a
            // structurally valid envelope with different content — not
            // detectable without checksumming the payload itself. The
            // contract under test is only "never a panic, never a
            // half-parsed entry".
            Some(p) => assert_ne!(p, "", "case {case}: hits carry a payload"),
        }
    }
    assert!(
        corrupt_seen > 40,
        "mutations should usually corrupt: {corrupt_seen}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins the cell fingerprints of every campaign spec under `datasets/`
/// and of the benchmark's four batch specs under `perfbench/workloads/`
/// (read in place): the fingerprint of each spec's ordered cell keys,
/// and of its ordered cell labels, must equal the values recorded when
/// the pin was written. Any cache-key drift — a changed key recipe, a
/// new default, a reordered expansion — fails here, so a refactor that
/// keeps this test green keeps every existing cache entry reachable;
/// the labels key the benchmark's references. `grid_fidelity.json` is
/// pinned as written and at each reduced tier.
#[test]
fn dataset_cell_fingerprints_are_pinned() {
    let cases: [(&str, Option<&str>, &str, &str); 10] = [
        (
            "datasets/grid_quick.json",
            None,
            "0ee76a5e3673bbb9e329f83d39160c7d",
            "bd54f3521dda90359fc3f9feb33da0b1",
        ),
        (
            "datasets/grid_tiering.json",
            None,
            "9722dafc572c53b89ff02a6b5607dcb4",
            "c31e839ce534793914f77d25cc06b8b5",
        ),
        (
            "datasets/grid_topology.json",
            None,
            "2ca70cc695a14d6d63487e087d32fe09",
            "efe43b76baefa450d75e40755375cfd4",
        ),
        (
            "datasets/grid_fidelity.json",
            None,
            "94ee5e690cfd4d2178d7ebd70eadbd65",
            "246e35207b5f267da4f9cb164d9a5f69",
        ),
        (
            "datasets/grid_fidelity.json",
            Some("sampled"),
            "b812c05a758983d908cf347bee78f475",
            "246e35207b5f267da4f9cb164d9a5f69",
        ),
        (
            "datasets/grid_fidelity.json",
            Some("fast"),
            "a8fa7088667af530343aa9ce92f30da4",
            "246e35207b5f267da4f9cb164d9a5f69",
        ),
        (
            "perfbench/workloads/detailed_grid.json",
            None,
            "4084703130a079d236f543e3fc13918e",
            "23fb25e0f3a3bccd943e7d4b157ea3f9",
        ),
        (
            "perfbench/workloads/tiering_policies.json",
            None,
            "cc598d582944dc754a633b6fed3e55d9",
            "5a4d9f0df2029abfe10a5c17c4ec0fab",
        ),
        (
            "perfbench/workloads/sampled_grid.json",
            None,
            "e482d5c34f46fc0adf8d15ca6bfca6a6",
            "9da793ede09068b81789301242a7b474",
        ),
        (
            "perfbench/workloads/fast_sweep.json",
            None,
            "6b32dcbdd61d98d95207f07686bb70cd",
            "5982fed540536daef58a78ede081a132",
        ),
    ];
    let mut drift = Vec::new();
    for (file, fidelity, keys_pin, labels_pin) in cases {
        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        let mut spec = CampaignSpec::load(&path).expect("spec loads");
        if let Some(f) = fidelity {
            spec.fidelity = Some(f.to_string());
        }
        let cells = spec.expand().expect("spec expands");
        let keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        for (what, got, pinned) in [
            ("keys", fingerprint(&keys), keys_pin),
            ("labels", fingerprint(&labels), labels_pin),
        ] {
            if got != pinned {
                drift.push(format!("{file} {fidelity:?} {what}: {got}"));
            }
        }
    }
    assert!(drift.is_empty(), "cells drifted:\n{}", drift.join("\n"));
}

/// Cells that share local-DRAM runs: two platforms × {`local`, `numa`,
/// `cxl-b+numa`, `cxl-b` under `lru-hotness`} × three workloads, at each
/// fidelity tier, indexed in order. The emr2s `local` cells have their
/// local spec as their target.
fn shared_baseline_cells() -> Vec<CampaignCell> {
    let mut cells = Vec::new();
    for fidelity in ["detailed", "sampled", "fast"] {
        let plain = CampaignSpec {
            name: "shared".into(),
            platforms: vec!["emr2s".into(), "spr2s".into()],
            devices: vec!["local".into(), "numa".into(), "cxl-b+numa".into()],
            workloads: vec!["605.mcf".into(), "541.leela".into(), "519.lbm".into()],
            fidelity: Some(fidelity.into()),
            ..tiny_spec()
        };
        let tiered = CampaignSpec {
            devices: vec!["cxl-b".into()],
            policies: vec!["lru-hotness".into()],
            ..plain.clone()
        };
        cells.extend(plain.expand().expect("expand"));
        cells.extend(tiered.expand().expect("expand"));
    }
    for (i, cell) in cells.iter_mut().enumerate() {
        cell.index = i;
    }
    cells
}

fn outcome_json(o: &PairOutcome) -> String {
    serde_json::to_string(o).expect("outcome serializes")
}

/// Resolves `cells` and checks that each outcome serializes exactly as
/// the cell's own pair run does.
fn resolve_as_alone(cells: &[CampaignCell]) -> usize {
    let r = resolve(
        cells,
        &mut Journal::in_memory(),
        None,
        &CellPolicy::default(),
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.stats.simulated, cells.len());
    for (cell, o) in cells.iter().zip(&r.outcomes) {
        let o = o.as_ref().expect("every cell resolves");
        assert_eq!(
            outcome_json(o),
            outcome_json(&cell.run()),
            "{}",
            cell.label()
        );
    }
    r.baselines
}

#[test]
fn shared_baselines_resolve_as_each_cell_runs_alone() {
    // One baseline per tier × platform × workload: the tiers' cells
    // differ only in their run options.
    let mut cells = shared_baseline_cells();
    assert_eq!(resolve_as_alone(&cells), 3 * 2 * 3);
    // One local spec on both platforms is still a baseline per platform.
    for cell in &mut cells {
        cell.local = presets::local_emr().into();
    }
    assert_eq!(resolve_as_alone(&cells), 3 * 2 * 3);
}

#[test]
fn a_population_resolves_as_its_pairs_run_alone() {
    let workloads: Vec<_> = ["605.mcf", "519.lbm"]
        .map(|w| melody_workloads::registry::by_name(w).expect("registered"))
        .to_vec();
    let setups = &grid::EMR[..2];
    let data = grid::population(setups, &workloads, Scale::Smoke, &mut Journal::in_memory());
    let opts = RunOptions {
        mem_refs: Scale::Smoke.mem_refs(),
        ..Default::default()
    };
    for ((label, platform, target), (got_label, outcomes)) in setups.iter().zip(&data.cells) {
        assert_eq!(label, got_label);
        let platform = platform();
        let local = local_for_platform(&platform);
        for (w, o) in workloads.iter().zip(outcomes) {
            let alone = run_pair(&platform, &local, &target(), w, &opts);
            assert_eq!(outcome_json(o), outcome_json(&alone), "{label}/{}", w.name);
        }
    }
}

#[test]
fn a_panicking_baseline_fails_each_cell_as_it_fails_alone() {
    // emr2s's cells get a local CXL device that fails validation, so its
    // shared baselines panic in `CxlDevice::new`; spr2s's cells are fine.
    let DeviceSpec::Cxl(mut broken) = presets::cxl_b() else {
        panic!("cxl-b is a CXL device");
    };
    broken.channels = 0;
    assert!(broken.validate().is_err());
    let mut cells = shared_baseline_cells();
    for cell in cells.iter_mut().filter(|c| c.labels[0] == "emr2s") {
        cell.local = DeviceSpec::Cxl(broken.clone()).into();
    }
    let policy = CellPolicy {
        backoff: Duration::from_millis(1),
        ..CellPolicy::default()
    }
    .with_attempts(2);
    let r = resolve(&cells, &mut Journal::in_memory(), None, &policy);
    let alone = run_cells(&cells, &policy, |_, c| c.label(), |c| c.run());
    let mut expected = Vec::new();
    for ((cell, got), want) in cells.iter().zip(&r.outcomes).zip(alone) {
        match want {
            Ok(o) => assert_eq!(
                got.as_ref().map(outcome_json),
                Some(outcome_json(&o)),
                "{}",
                cell.label()
            ),
            Err(e) => {
                assert!(got.is_none(), "{}", cell.label());
                expected.push(e);
            }
        }
    }
    // The fast tier builds no device, so only the detailed and sampled
    // emr2s cells fail.
    assert_eq!(expected.len(), 2 * 12);
    assert_eq!(r.errors, expected);
    assert_eq!(r.stats.failed, expected.len());
}

#[test]
fn journaled_cells_simulate_no_baseline() {
    let cells = shared_baseline_cells();
    let (emr, spr): (Vec<CampaignCell>, Vec<CampaignCell>) =
        cells.iter().cloned().partition(|c| c.labels[0] == "emr2s");
    let mut journal = Journal::in_memory();
    let first = resolve(&emr, &mut journal, None, &CellPolicy::default());
    assert_eq!(first.baselines, 3 * 3);
    let all = resolve(&cells, &mut journal, None, &CellPolicy::default());
    assert_eq!(all.stats.journal_hits, emr.len());
    assert_eq!(all.stats.simulated, spr.len());
    assert_eq!(all.baselines, 3 * 3, "only spr2s's baselines simulate");
    let again = resolve(&cells, &mut journal, None, &CellPolicy::default());
    assert_eq!(again.stats.journal_hits, cells.len());
    assert_eq!(again.baselines, 0);
}
