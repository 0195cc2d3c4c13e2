//! Metric declarations, the layer map, and the statistics the benchmark
//! reports with.
//!
//! The lists here mirror `BENCHMARK.json` at the repository root (a
//! unit test keeps the two in step). Every end-to-end metric is reported
//! by every workload, so each is defined in a way that holds for a batch
//! campaign and for the server alike; per-layer metrics come from the
//! traced run.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, counts of work).
    Lower,
    /// Larger values are better (throughputs, ratios of useful work).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`, module name as prefix).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user running campaigns or the server sees.
/// All are host-time or host-memory measurements of the untraced run.
pub const END_TO_END: &[Metric] = &[
    // Spec load and expansion; for the server also cache warming and
    // start-up. Median of several set-ups.
    e2e("setup_s", "s", Lower, 0.25),
    // Campaign cells resolved per host second (simulated, or read from
    // the cache for the server's warm jobs). Host times carry the
    // largest bound: on the shared 2-core benchmark host they drift by
    // 10-25 % within minutes with the other tenants' load.
    e2e("cells_per_s", "1/s", Higher, 0.25),
    // Simulated instructions (local + target run of each cell) delivered
    // per host second, in millions.
    e2e("sim_mips", "Minst/s", Higher, 0.25),
    // Median host time of one unit of work: one whole campaign for the
    // batch workloads, one submit-to-result round trip for the server.
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    // Peak bytes the benchmark process held allocated at once, through
    // the end of the timed phase.
    e2e("heap_peak_mb", "MB", Lower, 0.10),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).
///
/// The first group is the isolated ladder: each layer alone on a fixed,
/// seeded input, identical for every workload. The second group
/// attributes the workload's own traced replay to layers; a layer the
/// workload bypasses reads 0 there (see [`LAYERS`]).
pub const PER_LAYER: &[Metric] = &[
    // -- isolated ladder --
    layer("mem.imc.maccess_per_s", "Macc/s", Higher),
    layer("mem.cxl.maccess_per_s", "Macc/s", Higher),
    layer("mem.hopped.maccess_per_s", "Macc/s", Higher),
    layer("mem.interleaved.maccess_per_s", "Macc/s", Higher),
    layer("mem.switch.maccess_per_s", "Macc/s", Higher),
    layer("mem.tiered.maccess_per_s", "Macc/s", Higher),
    layer("cpu.detailed.mslots_per_s", "Mslot/s", Higher),
    layer("cpu.sampled.mslots_per_s", "Mslot/s", Higher),
    layer("cpu.setup_ms", "ms", Lower),
    layer("cpu.sampled.err_pct", "%", Lower),
    layer("spa.interval.us_per_call", "us", Lower),
    layer("spa.interval.err_pct", "%", Lower),
    layer("campaign.key.us_per_cell", "us", Lower),
    layer("campaign.json.us_per_cell", "us", Lower),
    layer("cache.get.us_per_op", "us", Lower),
    layer("cache.put.us_per_op", "us", Lower),
    layer("journal.record.us_per_op", "us", Lower),
    layer("server.health.p50_ms", "ms", Lower),
    layer("server.submit.p50_ms", "ms", Lower),
    layer("server.wait.p50_ms", "ms", Lower),
    layer("server.result.p50_ms", "ms", Lower),
    layer("server.roundtrip.p50_ms", "ms", Lower),
    // -- attribution of the workload's traced replay --
    layer("replay.busy_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("exec.pool_efficiency", "ratio", Higher),
    layer("workloads.stream.self_pct", "%", Lower),
    layer("workloads.stream.slots", "count", Lower),
    layer("cpu.engine.self_pct", "%", Lower),
    layer("cpu.warm.self_pct", "%", Lower),
    layer("cpu.warm.count", "count", Lower),
    layer("cpu.setup.self_pct", "%", Lower),
    layer("mem.access.self_pct", "%", Lower),
    layer("mem.access.count", "count", Lower),
    layer("mem.observe.self_pct", "%", Lower),
    layer("mem.observe.count", "count", Lower),
    layer("mem.fast_forward.self_pct", "%", Lower),
    layer("mem.fast_forward.count", "count", Lower),
    layer("spa.interval.self_pct", "%", Lower),
    layer("spa.interval.count", "count", Lower),
    layer("spa.breakdown.self_pct", "%", Lower),
    layer("campaign.expand.busy_s", "s", Lower),
    layer("campaign.key.busy_s", "s", Lower),
    layer("campaign.json.busy_s", "s", Lower),
    layer("campaign.json.bytes", "bytes", Lower),
    layer("cache.get.self_pct", "%", Lower),
    layer("cache.get.count", "count", Lower),
    layer("cache.put.self_pct", "%", Lower),
    layer("cache.put.count", "count", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("journal.record.busy_s", "s", Lower),
    layer("journal.record.count", "count", Lower),
    layer("server.self_pct", "%", Lower),
    layer("server.busy_rejections", "count", Lower),
];

/// The benchmark's workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "detailed_grid",
        "Cold detailed campaign over 6 devices and 2 fabrics: CPU engine and device models do the work; tiering, fast-forward and the cache are bypassed.",
    ),
    (
        "tiering_policies",
        "Cold detailed campaign under 3 migration policies: every reference goes through the page tracker; detailed_grid is its no-tiering control.",
    ),
    (
        "sampled_grid",
        "Cold sampled campaign of held-out workloads on long streams: fast-forward and warmup re-priming dominate; accuracy is checked against detailed.",
    ),
    (
        "fast_sweep",
        "Paper-scale fast-tier sweep of 10,600 cells: the interval model is cheap, so per-cell key, JSON round trip and journal append dominate.",
    ),
    (
        "serve_mixed",
        "2 closed-loop clients on an in-process server: 3 of 4 jobs read a warm cache, 1 of 4 writes it; HTTP, queue, journal and JSON dominate.",
    ),
];

/// One row of the layer map: a layer's metrics, the end-to-end metric
/// each should move on which workload, and the workloads that bypass it.
#[derive(Debug, Clone, Copy)]
pub struct LayerRow {
    /// Layer (module) name.
    pub layer: &'static str,
    /// Per-layer metrics belonging to the layer.
    pub metrics: &'static [&'static str],
    /// `(end-to-end metric, workload)` pairs a change to the layer should
    /// move.
    pub moves: &'static [(&'static str, &'static str)],
    /// Workloads on which the layer does no work (the prediction for a
    /// change to it there is "no change").
    pub bypassed_on: &'static [&'static str],
}

/// The layer → end-to-end map, written down before any measurement.
pub const LAYERS: &[LayerRow] = &[
    LayerRow {
        layer: "workloads",
        metrics: &["workloads.stream.self_pct", "workloads.stream.slots"],
        moves: &[
            ("sim_mips", "detailed_grid"),
            ("sim_mips", "tiering_policies"),
            ("sim_mips", "sampled_grid"),
        ],
        bypassed_on: &["fast_sweep", "serve_mixed"],
    },
    LayerRow {
        layer: "cpu",
        metrics: &[
            "cpu.engine.self_pct",
            "cpu.warm.self_pct",
            "cpu.warm.count",
            "cpu.setup.self_pct",
            "cpu.detailed.mslots_per_s",
            "cpu.sampled.mslots_per_s",
            "cpu.setup_ms",
            "cpu.sampled.err_pct",
        ],
        moves: &[
            ("sim_mips", "detailed_grid"),
            ("cells_per_s", "detailed_grid"),
            ("cells_per_s", "sampled_grid"),
        ],
        bypassed_on: &["fast_sweep", "serve_mixed"],
    },
    LayerRow {
        layer: "mem",
        metrics: &[
            "mem.access.self_pct",
            "mem.access.count",
            "mem.observe.self_pct",
            "mem.observe.count",
            "mem.fast_forward.self_pct",
            "mem.fast_forward.count",
            "mem.imc.maccess_per_s",
            "mem.cxl.maccess_per_s",
            "mem.hopped.maccess_per_s",
            "mem.interleaved.maccess_per_s",
            "mem.switch.maccess_per_s",
            "mem.tiered.maccess_per_s",
        ],
        moves: &[
            ("sim_mips", "detailed_grid"),
            ("sim_mips", "tiering_policies"),
            ("sim_mips", "sampled_grid"),
        ],
        bypassed_on: &["fast_sweep", "serve_mixed"],
    },
    LayerRow {
        layer: "spa",
        metrics: &[
            "spa.interval.self_pct",
            "spa.interval.count",
            "spa.breakdown.self_pct",
            "spa.interval.us_per_call",
            "spa.interval.err_pct",
        ],
        moves: &[("cells_per_s", "fast_sweep")],
        bypassed_on: &["detailed_grid", "tiering_policies", "sampled_grid"],
    },
    LayerRow {
        layer: "campaign",
        metrics: &[
            "campaign.expand.busy_s",
            "campaign.key.busy_s",
            "campaign.json.busy_s",
            "campaign.json.bytes",
            "campaign.key.us_per_cell",
            "campaign.json.us_per_cell",
        ],
        moves: &[
            ("setup_s", "fast_sweep"),
            ("cells_per_s", "fast_sweep"),
            ("latency_p50_ms", "serve_mixed"),
        ],
        bypassed_on: &[],
    },
    LayerRow {
        layer: "cache",
        metrics: &[
            "cache.get.self_pct",
            "cache.get.count",
            "cache.put.self_pct",
            "cache.put.count",
            "cache.hit_ratio",
            "cache.get.us_per_op",
            "cache.put.us_per_op",
        ],
        moves: &[
            ("latency_p50_ms", "serve_mixed"),
            ("cells_per_s", "serve_mixed"),
        ],
        bypassed_on: &[
            "detailed_grid",
            "tiering_policies",
            "sampled_grid",
            "fast_sweep",
        ],
    },
    LayerRow {
        layer: "journal",
        metrics: &[
            "journal.record.busy_s",
            "journal.record.count",
            "journal.record.us_per_op",
        ],
        moves: &[
            ("cells_per_s", "fast_sweep"),
            ("latency_p50_ms", "serve_mixed"),
        ],
        bypassed_on: &[],
    },
    LayerRow {
        layer: "exec",
        metrics: &["exec.pool_efficiency"],
        moves: &[("cells_per_s", "detailed_grid")],
        bypassed_on: &[],
    },
    LayerRow {
        layer: "server",
        metrics: &[
            "server.self_pct",
            "server.busy_rejections",
            "server.health.p50_ms",
            "server.submit.p50_ms",
            "server.wait.p50_ms",
            "server.result.p50_ms",
            "server.roundtrip.p50_ms",
        ],
        moves: &[
            ("latency_p50_ms", "serve_mixed"),
            ("cells_per_s", "serve_mixed"),
        ],
        bypassed_on: &[
            "detailed_grid",
            "tiering_policies",
            "sampled_grid",
            "fast_sweep",
        ],
    },
    LayerRow {
        layer: "trace",
        metrics: &["trace.overhead_pct", "replay.busy_s"],
        moves: &[],
        bypassed_on: &[],
    },
];

/// True for a valid metric or workload name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (mean of the middle two for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail percentile of a sample set, with the count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 95.0).
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{} = {:.4} (n = {})", self.pct, self.value, self.n)
    }
}

/// Candidate tail percentiles in per mille, highest first (integers, so
/// ranks involve no rounding error).
const TAIL_PER_MILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest of p99.9/p99/p95/p90/p75/p50 that has at least ten
/// samples beyond it, by nearest rank. `None` (rendered `n/a`) when even
/// the median lacks ten samples above it, i.e. below 20 samples.
pub fn tail_percentile(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let pm = TAIL_PER_MILLE
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (n * pm).div_ceil(1000).clamp(1, n);
    Some(Tail {
        pct: pm as f64 / 10.0,
        value: v[rank - 1],
        n,
    })
}

/// Renders an optional tail as text, `n/a` when absent.
pub fn render_tail(t: Option<Tail>) -> String {
    t.map_or_else(|| "n/a".to_string(), |t| t.to_string())
}

/// Looks a declared metric up by name in both lists.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    #[test]
    fn names_are_valid_unique_and_within_limits() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        all.extend(WORKLOADS.iter().map(|(w, _)| *w));
        for n in &all {
            assert!(valid_name(n), "invalid name {n}");
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "names must be unique");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn layer_rows_name_declared_metrics_and_workloads() {
        let workload = |w: &str| WORKLOADS.iter().any(|(n, _)| *n == w);
        for row in LAYERS {
            for m in row.metrics {
                let metric = find(m).unwrap_or_else(|| panic!("{}: undeclared {m}", row.layer));
                assert!(metric.bound.is_none(), "{m} is per-layer");
            }
            for (m, w) in row.moves {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *m),
                    "{}: {m} is not an end-to-end metric",
                    row.layer
                );
                assert!(workload(w), "{}: unknown workload {w}", row.layer);
            }
            for w in row.bypassed_on {
                assert!(workload(w), "{}: unknown workload {w}", row.layer);
            }
        }
        // Every per-layer metric belongs to exactly one layer row.
        for m in PER_LAYER {
            let rows = LAYERS
                .iter()
                .filter(|r| r.metrics.contains(&m.name))
                .count();
            assert_eq!(rows, 1, "{} appears in {rows} layer rows", m.name);
        }
    }

    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            get(&doc, key)
                .as_array()
                .expect("array")
                .iter()
                .map(|m| get(m, "name").as_str().expect("name").to_string())
                .collect()
        };
        let declared =
            |ms: &[Metric]| -> Vec<String> { ms.iter().map(|m| m.name.to_string()).collect() };
        assert_eq!(names("end_to_end"), declared(END_TO_END));
        assert_eq!(names("per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("workloads"), workloads);
        for m in get(&doc, "end_to_end").as_array().expect("array") {
            let name = get(m, "name").as_str().expect("name");
            let decl = find(name).expect("declared");
            assert_eq!(get(m, "unit").as_str(), Some(decl.unit), "{name}");
            assert_eq!(
                get(m, "better").as_str(),
                Some(decl.better.label()),
                "{name}"
            );
            assert_eq!(
                get(m, "bound"),
                &Value::F64(decl.bound.expect("bound")),
                "{name}"
            );
        }
        for m in get(&doc, "per_layer").as_array().expect("array") {
            let name = get(m, "name").as_str().expect("name");
            let decl = find(name).expect("declared");
            assert_eq!(get(m, "unit").as_str(), Some(decl.unit), "{name}");
            assert_eq!(
                get(m, "better").as_str(),
                Some(decl.better.label()),
                "{name}"
            );
        }
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(tail_percentile(&[]), None);
        assert_eq!(tail_percentile(&ramp(19)), None, "p50 needs 20 samples");
        assert_eq!(render_tail(tail_percentile(&ramp(5))), "n/a");
        let t = tail_percentile(&ramp(20)).expect("p50 at n=20");
        assert_eq!((t.pct, t.value, t.n), (50.0, 10.0, 20));
        let t = tail_percentile(&ramp(240)).expect("n=240");
        assert_eq!((t.pct, t.value, t.n), (95.0, 228.0, 240));
        let t = tail_percentile(&ramp(1000)).expect("n=1000");
        assert_eq!(t.pct, 99.0);
        let t = tail_percentile(&ramp(10_000)).expect("n=10000");
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
