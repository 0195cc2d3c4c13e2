//! Campaign engine: declarative platform × device × workload × faults
//! grids with content-addressed result caching and CI sharding.
//!
//! A campaign is a JSON [`CampaignSpec`] naming platforms, devices,
//! fault regimes, tiering policies and workloads. [`CampaignSpec::expand`]
//! resolves the grid through one axis table ([`AXES`]) into concrete
//! [`CampaignCell`]s — fully-resolved configurations, each with a stable
//! fingerprint over everything that determines its result (platform
//! parameters, device spec with faults and policy applied, workload
//! spec, run options, and the code-schema version stamps).
//! [`run_campaign`] then consults a journal (same-run resume) and a
//! [`ResultCache`] (cross-run warm starts) before dispatching only the
//! misses to the resilient worker pool.
//!
//! Byte-identity contract: every cell result — journaled, cached, or
//! freshly simulated — passes through exactly one compact-JSON
//! round-trip before entering the report, so campaign output is
//! identical whether cells came from cache, fresh simulation, any
//! `--jobs` setting, or any shard split merged back together. CI
//! enforces this with `cmp`.
//!
//! A cell is a pure function of its spec: nothing outside the spec (no
//! process setting) enters [`CampaignSpec::expand`], so one spec file
//! names the same cells and cache keys in every process.

use std::sync::Mutex;

use melody_cpu::{Fidelity, Platform, SamplingParams};
use melody_mem::faults::REGIMES;
use melody_mem::{presets, DeviceSpec, FaultConfig, PolicyKind, TieringConfig, TopologySpec};
use melody_spa::Breakdown;
use melody_workloads::{registry, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::cache::{self, ResultCache};
use crate::exec::{run_cells, CellError, CellPolicy};
use crate::experiments::Scale;
use crate::journal::Journal;
use crate::report::TableData;
use crate::runner::{run_pair, PairOutcome, RunOptions};

/// Version stamp of the campaign's cached result payloads (the
/// serialized [`PairOutcome`] plus derived row schema). Mixed into every
/// cell fingerprint; bump it when the payload's shape or meaning changes
/// so stale cache entries become unreachable (see EXPERIMENTS.md,
/// "Campaigns and the result cache").
pub const RESULT_SCHEMA_VERSION: u32 = 2;

type MakePlatform = fn() -> Platform;

/// Every platform keyword with its constructor, in the order errors list them.
const PLATFORMS: [(&str, MakePlatform); 5] = [
    ("spr2s", Platform::spr2s),
    ("emr2s", Platform::emr2s),
    ("emr2s-prime", Platform::emr2s_prime),
    ("skx2s", Platform::skx2s),
    ("skx8s", Platform::skx8s),
];

type Wrap = fn(DeviceSpec) -> DeviceSpec;

/// Device keyword suffixes with the wrapper each puts around its class's preset.
const DEVICE_SUFFIXES: [(&str, Wrap); 3] = [
    ("+numa", DeviceSpec::with_numa_hop),
    ("+switch", DeviceSpec::with_switch_hop),
    ("-x2", |d| d.interleaved(2)),
];

/// Resolves a device keyword (a [`presets::DEVICE_CLASSES`] class,
/// optionally suffixed `+numa`, `+switch` or `-x2`) to its preset spec.
pub fn device_by_name(name: &str) -> Option<DeviceSpec> {
    match DEVICE_SUFFIXES
        .iter()
        .find_map(|(suffix, wrap)| Some((name.strip_suffix(suffix)?, wrap)))
    {
        Some((class, wrap)) => presets::device_class(class).map(wrap),
        None => presets::device_class(name),
    }
}

/// Resolves a platform keyword (`spr2s`, `emr2s`, `emr2s-prime`,
/// `skx2s`, `skx8s`) to its [`Platform`].
pub fn platform_by_name(name: &str) -> Option<Platform> {
    let (_, platform) = PLATFORMS.iter().find(|(n, _)| *n == name)?;
    Some(platform())
}

/// The local-DRAM baseline device paired with a platform (matching the
/// paper's Table 1 testbeds; `melody run --platform` uses the same map).
pub fn local_for_platform(platform: &Platform) -> DeviceSpec {
    match platform.name.as_str() {
        "SPR2S" => presets::local_spr(),
        "EMR2S'" => presets::local_emr_prime(),
        "SKX2S" => presets::local_skx2s(),
        "SKX8S" => presets::local_skx8s(),
        _ => presets::local_emr(),
    }
}

/// Fingerprint of one simulation cell: the canonical config JSON mixed
/// with every schema stamp that can change what a stored result means —
/// the cache envelope version, this campaign payload version, and the
/// device/workload spec versions.
pub fn cell_fingerprint(domain: &str, config_json: &str) -> String {
    cache::fingerprint(&[
        "melody-cell",
        &cache::CACHE_SCHEMA_VERSION.to_string(),
        &RESULT_SCHEMA_VERSION.to_string(),
        &melody_mem::SPEC_SCHEMA_VERSION.to_string(),
        &melody_workloads::SPEC_SCHEMA_VERSION.to_string(),
        domain,
        config_json,
    ])
}

/// Canonical config JSON of one local-vs-target pair run — the hash
/// input for [`cell_fingerprint`] of every campaign cell.
pub fn pair_config_json(
    platform: &Platform,
    local: &DeviceSpec,
    target: &DeviceSpec,
    workload: &WorkloadSpec,
    opts: &RunOptions,
) -> String {
    format!(
        "{{\"platform\":{},\"local\":{},\"target\":{},\"workload\":{},\"opts\":{}}}",
        serde_json::to_string(platform).expect("Platform serializes"),
        local.canonical_json(),
        target.canonical_json(),
        workload.canonical_json(),
        serde_json::to_string(opts).expect("RunOptions serializes"),
    )
}

/// An axis of the campaign grid, in [`AXES`] order. Each entry owns how a
/// name on it resolves ([`Axis::resolve`]) and how its value changes a
/// cell and labels it ([`AxisValue::apply`]); [`CampaignSpec::expand`]
/// and the `melody` CLI both resolve through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Sets the platform ([`platform_by_name`]) and its local DRAM.
    Platform,
    /// Sets the target ([`device_by_name`] or [`AxisValue::topology`]).
    Device,
    /// Attaches a fault regime ([`REGIMES`]) to the target.
    Faults,
    /// Puts a tiering policy ([`melody_mem::POLICIES`]) in front of the
    /// target, with the local DRAM as its fast tier.
    Policy,
    /// Sets the workload ([`registry::by_name`]).
    Workload,
}

/// The grid's axes, outermost first.
pub const AXES: [Axis; 5] = [
    Axis::Platform,
    Axis::Device,
    Axis::Faults,
    Axis::Policy,
    Axis::Workload,
];

impl Axis {
    /// Resolves `name` on this axis; an unknown name is an error listing
    /// the valid ones. A policy takes `spec`'s tiering knobs; `static`
    /// adds no label.
    pub fn resolve(self, name: &str, spec: &CampaignSpec) -> Result<AxisValue, String> {
        let setting = match self {
            Axis::Platform => platform_by_name(name).map(Setting::Platform),
            Axis::Device => device_by_name(name).map(|d| Setting::Device(Box::new(d))),
            Axis::Faults => FaultConfig::by_name(name).map(Setting::Faults),
            Axis::Policy => PolicyKind::parse(name).map(|p| Setting::Policy(TieringConfig::new(p))),
            Axis::Workload => registry::by_name(name).map(Setting::Workload),
        };
        let setting = setting.ok_or_else(|| match self {
            Axis::Platform => {
                let known = PLATFORMS.map(|(n, _)| n).join("|");
                format!("unknown platform `{name}` ({known})")
            }
            Axis::Device => format!(
                "unknown device `{name}` (classes: {}; suffixes: {})",
                presets::DEVICE_CLASSES.join(", "),
                DEVICE_SUFFIXES.map(|(s, _)| s).join(", ")
            ),
            Axis::Faults => format!(
                "unknown fault regime `{name}` (known: {})",
                REGIMES.join(", ")
            ),
            Axis::Policy => melody_mem::policy::unknown_policy_error(name),
            Axis::Workload => format!("unknown workload `{name}` (try `melody workloads`)"),
        })?;
        let mut value = AxisValue::new(self, name.to_string(), setting);
        match &mut value.setting {
            Setting::Policy(tc) if tc.policy == PolicyKind::Static => value.label.clear(),
            Setting::Policy(tc) => {
                tc.page_bytes = spec.page_bytes.unwrap_or(tc.page_bytes);
                tc.migrate_budget_gbps = spec.migrate_budget_gbps.unwrap_or(tc.migrate_budget_gbps);
                tc.validate().map_err(|e| format!("tiering: {e}"))?;
            }
            _ => {}
        }
        Ok(value)
    }

    /// `spec`'s values on this axis, each resolved once, topologies after
    /// `devices`; empty faults, policies and workloads take defaults.
    fn values(self, spec: &CampaignSpec) -> Result<Vec<AxisValue>, String> {
        let names = match self {
            Axis::Platform => &spec.platforms,
            Axis::Device => &spec.devices,
            Axis::Faults => &spec.faults,
            Axis::Policy => &spec.policies,
            Axis::Workload => &spec.workloads,
        };
        let mut values = names
            .iter()
            .map(|n| self.resolve(n, spec))
            .collect::<Result<Vec<_>, _>>()?;
        match self {
            Axis::Device => {
                for t in &spec.topologies {
                    let fabric = AxisValue::topology(t.clone())?;
                    if values.iter().any(|v| v.label == fabric.label) {
                        return Err(format!(
                            "topology name `{}` duplicates another device-axis entry",
                            fabric.label
                        ));
                    }
                    values.push(fabric);
                }
            }
            Axis::Faults if values.is_empty() => values.push(self.resolve("none", spec)?),
            Axis::Policy if values.is_empty() => values.push(self.resolve("static", spec)?),
            Axis::Workload if values.is_empty() => {
                let selected = spec.effective_scale()?.select_workloads();
                values.extend(selected.into_iter().map(AxisValue::workload));
            }
            _ => {}
        }
        Ok(values)
    }
}

/// One resolved value of an [`Axis`]: its label and what it sets.
#[derive(Debug, Clone)]
pub struct AxisValue {
    axis: Axis,
    label: String,
    setting: Setting,
}

/// What an axis value sets in a cell.
#[derive(Debug, Clone)]
enum Setting {
    Platform(Platform),
    Device(Box<DeviceSpec>),
    Faults(FaultConfig),
    Policy(TieringConfig),
    Workload(WorkloadSpec),
}

impl AxisValue {
    fn new(axis: Axis, label: String, setting: Setting) -> Self {
        Self {
            axis,
            label,
            setting,
        }
    }

    fn workload(w: WorkloadSpec) -> Self {
        Self::new(Axis::Workload, w.name.clone(), Setting::Workload(w))
    }

    /// A topology's device-axis value: its validated fabric, lowered and
    /// labelled by its name.
    pub fn topology(t: TopologySpec) -> Result<Self, String> {
        let fabric = t.validate()?;
        let setting = Setting::Device(Box::new(fabric.lower()));
        Ok(Self::new(Axis::Device, fabric.name().to_string(), setting))
    }

    /// Sets this value in `draft`. A fault regime or policy changes the
    /// target set before it; an inert one (`none`, `static`) leaves it
    /// unchanged.
    pub fn apply(&self, draft: &mut Draft) {
        draft.labels[self.axis as usize] = self.label.clone();
        match &self.setting {
            Setting::Platform(p) => draft.platform = Some((p.clone(), local_for_platform(p))),
            Setting::Device(spec) => draft.target = Some(DeviceSpec::clone(spec)),
            Setting::Faults(fc) => {
                draft.target = draft.target.take().map(|t| t.with_faults(fc.clone()));
            }
            Setting::Policy(tc) => {
                let (_, local) = draft.platform.as_ref().expect("the platform is set first");
                draft.target = draft
                    .target
                    .take()
                    .map(|t| t.with_tiering(tc.clone(), local.clone()));
            }
            Setting::Workload(w) => draft.workload = Some(w.clone()),
        }
    }
}

/// A cell as its axis values fill it in, outermost axis first.
#[derive(Debug, Clone, Default)]
pub struct Draft {
    /// Each axis's label, in [`AXES`] order; empty until set.
    pub labels: [String; AXES.len()],
    /// The platform and its local-DRAM baseline.
    pub platform: Option<(Platform, DeviceSpec)>,
    /// The target device, with every fault regime and policy so far.
    pub target: Option<DeviceSpec>,
    /// The workload.
    pub workload: Option<WorkloadSpec>,
}

impl Draft {
    /// The finished cell at expansion position `index`, keyed by its
    /// resolved config. Panics unless every axis is set.
    pub fn finish(self, index: usize, opts: &RunOptions) -> CampaignCell {
        let unset = "every axis is set";
        let (platform, local) = self.platform.expect(unset);
        let target = self.target.expect(unset);
        let workload = self.workload.expect(unset);
        let config = pair_config_json(&platform, &local, &target, &workload, opts);
        CampaignCell {
            index,
            key: cell_fingerprint("pair", &config),
            labels: self.labels,
            platform,
            local,
            target,
            workload,
            opts: opts.clone(),
        }
    }
}

/// Appends the product of `axes` under `draft` to `cells`, applying each
/// value once per prefix.
fn product(
    axes: &[Vec<AxisValue>],
    draft: Draft,
    opts: &RunOptions,
    cells: &mut Vec<CampaignCell>,
) {
    let Some((values, inner)) = axes.split_first() else {
        cells.push(draft.finish(cells.len(), opts));
        return;
    };
    for value in values {
        let mut next = draft.clone();
        value.apply(&mut next);
        product(inner, next, opts, cells);
    }
}

/// A declarative campaign: the JSON document `melody campaign` loads.
///
/// `workloads` may list registry names explicitly; when empty, the
/// campaign draws the deterministic class-spanning selection for
/// `scale` (default `smoke`). `faults` defaults to `["none"]`,
/// `mem_refs` to the scale's reference count and `seed` to 42.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (labels reports and artifacts).
    pub name: String,
    /// Platform keywords (see [`platform_by_name`]).
    pub platforms: Vec<String>,
    /// Device keywords (see [`device_by_name`]).
    pub devices: Vec<String>,
    /// Explicit workload names; empty means "use `scale` selection".
    #[serde(default)]
    pub workloads: Vec<String>,
    /// Fault regimes ([`melody_mem::faults::REGIMES`]); empty = `none`.
    #[serde(default)]
    pub faults: Vec<String>,
    /// Workload-selection scale: `smoke`, `quick` or `full`.
    #[serde(default)]
    pub scale: Option<String>,
    /// Memory references per run (default: the scale's).
    #[serde(default)]
    pub mem_refs: Option<u64>,
    /// Base RNG seed (default 42).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Fidelity tier for every cell in the grid:
    /// `detailed` | `sampled` | `fast` (default `detailed`).
    #[serde(default)]
    pub fidelity: Option<String>,
    /// Sampled-tier warmup slots per period (default 512).
    #[serde(default)]
    pub sample_warmup: Option<u64>,
    /// Sampled-tier measurement-window slots per period (default 2048).
    #[serde(default)]
    pub sample_window: Option<u64>,
    /// Sampled-tier period length in slots (default 16384).
    #[serde(default)]
    pub sample_period: Option<u64>,
    /// Fabric topologies ([`melody_mem::TopologySpec`], inline in the
    /// campaign JSON). Each validated topology joins the device axis
    /// after `devices`, labelled by its topology name; a single-expander
    /// topology lowers to exactly its preset device, so it shares cache
    /// entries with the equivalent `devices` keyword by construction.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub topologies: Vec<melody_mem::TopologySpec>,
    /// Tiering migration policies ([`melody_mem::POLICIES`]): each
    /// policy joins the grid as its own axis between faults and
    /// workloads. Empty (or the `static` keyword) attaches no tiering
    /// layer, so policy-free campaigns hash and render identically to
    /// ones written before policies existed.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub policies: Vec<String>,
    /// Tiering page granularity in bytes (default 4096); only read by
    /// non-static policies.
    #[serde(default)]
    pub page_bytes: Option<u64>,
    /// Tiering migration bandwidth budget in GB/s (default 8.0); only
    /// read by non-static policies.
    #[serde(default)]
    pub migrate_budget_gbps: Option<f64>,
}

impl CampaignSpec {
    /// Loads a campaign spec from a JSON file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: not a campaign spec: {e:?}"))
    }

    /// The effective scale (`smoke` when unset).
    pub fn effective_scale(&self) -> Result<Scale, String> {
        Scale::resolve(self.scale.as_deref())
    }

    /// The run options every cell of this spec shares, defaults filled
    /// in; an invalid sampling schedule is an error.
    pub fn run_options(&self) -> Result<RunOptions, String> {
        let scale = self.effective_scale()?;
        let fidelity = Fidelity::resolve(self.fidelity.as_deref())?;
        let defaults = SamplingParams::default();
        let sampling = SamplingParams {
            warmup_slots: self.sample_warmup.unwrap_or(defaults.warmup_slots),
            window_slots: self.sample_window.unwrap_or(defaults.window_slots),
            period_slots: self.sample_period.unwrap_or(defaults.period_slots),
        };
        sampling.validate().map_err(|e| format!("sampling: {e}"))?;
        Ok(RunOptions {
            mem_refs: self.mem_refs.unwrap_or_else(|| scale.mem_refs()),
            seed: self.seed.unwrap_or(42),
            fidelity,
            sampling,
            ..Default::default()
        })
    }

    /// Expands the grid into fully-resolved cells: the product of the
    /// spec's values on the [`AXES`], outermost first. Unknown names are
    /// errors, not panics.
    pub fn expand(&self) -> Result<Vec<CampaignCell>, String> {
        let opts = self.run_options()?;
        if self.platforms.is_empty() || (self.devices.is_empty() && self.topologies.is_empty()) {
            return Err("campaign needs at least one platform and one device or topology".into());
        }
        let axes = AXES
            .iter()
            .map(|axis| axis.values(self))
            .collect::<Result<Vec<_>, _>>()?;
        let mut cells = Vec::new();
        product(&axes, Draft::default(), &opts, &mut cells);
        Ok(cells)
    }
}

/// One fully-resolved campaign cell, ready to simulate or look up.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Position in the campaign's deterministic expansion order.
    pub index: usize,
    /// Content fingerprint of the resolved configuration.
    pub key: String,
    /// Each axis's label, in [`AXES`] order; empty for `static`.
    pub labels: [String; AXES.len()],
    /// Resolved platform.
    pub platform: Platform,
    /// Local-DRAM baseline for this platform.
    pub local: DeviceSpec,
    /// Target device (faults and policy applied).
    pub target: DeviceSpec,
    /// Resolved workload.
    pub workload: WorkloadSpec,
    /// Run options.
    pub opts: RunOptions,
}

impl CampaignCell {
    /// Human-readable cell label for error reports: the axis labels
    /// joined by `/`.
    pub fn label(&self) -> String {
        join_labels(&self.labels)
    }

    /// Runs this cell's local-vs-target pair.
    pub fn run(&self) -> PairOutcome {
        run_pair(
            &self.platform,
            &self.local,
            &self.target,
            &self.workload,
            &self.opts,
        )
    }
}

/// Joins labels with `/`, skipping empty ones (the `static` policy's).
fn join_labels<'a>(labels: impl IntoIterator<Item = &'a String>) -> String {
    let labels: Vec<&str> = labels
        .into_iter()
        .filter(|l| !l.is_empty())
        .map(String::as_str)
        .collect();
    labels.join("/")
}

/// One shard of a campaign: this machine owns every cell whose index is
/// congruent to `index` modulo `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard index in `0..count`.
    pub index: usize,
    /// Total shard count (≥ 1).
    pub count: usize,
}

impl Shard {
    /// The whole campaign (one shard).
    pub fn full() -> Self {
        Self { index: 0, count: 1 }
    }

    /// Parses `"i/N"` (e.g. `"0/2"`); `i` must be below `N`.
    pub fn parse(s: &str) -> Option<Self> {
        let (i, n) = s.split_once('/')?;
        let index: usize = i.parse().ok()?;
        let count: usize = n.parse().ok()?;
        if count == 0 || index >= count {
            return None;
        }
        Some(Self { index, count })
    }

    /// True when this shard owns cell `index`.
    pub fn owns(&self, index: usize) -> bool {
        index % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One finished campaign cell, as reported (derived from the
/// round-tripped [`PairOutcome`], so cached and fresh cells render
/// identically).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignRow {
    /// Platform keyword.
    pub platform: String,
    /// Device keyword.
    pub device: String,
    /// Fault regime.
    pub faults: String,
    /// Tiering policy keyword; empty (and skipped in serialization) for
    /// static/no-policy cells, so policy-free reports stay
    /// byte-identical to the pre-policy format.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Suite label.
    pub suite: String,
    /// Slowdown vs the platform's local baseline (fraction).
    pub slowdown: f64,
    /// Spa breakdown of the slowdown.
    pub breakdown: Breakdown,
    /// Baseline IPC.
    pub local_ipc: f64,
    /// Target IPC.
    pub target_ipc: f64,
    /// Target demand-load p99.9 latency, ns.
    pub target_p999_ns: u64,
}

/// How each owned cell of a campaign run was resolved. Kept *outside*
/// [`CampaignReport`] deliberately: the report is byte-compared across
/// warm/cold/resumed runs, and resolution provenance is exactly what
/// differs between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignRunStats {
    /// Cells this shard owns.
    pub owned: usize,
    /// Cells restored from the journal (same-run resume).
    pub journal_hits: usize,
    /// Cells restored from the result cache (cross-run warm start).
    pub cache_hits: usize,
    /// Cells freshly simulated.
    pub simulated: usize,
    /// Cells skipped by a cancellation token (e.g. a server drain);
    /// they are *not* failures — a resumed run completes them.
    pub cancelled: usize,
    /// Cells that failed (panic/deadline) and appear in
    /// [`CampaignReport::errors`].
    pub failed: usize,
}

impl CampaignRunStats {
    /// One-line render for stderr diagnostics (never stdout: warm and
    /// cold runs resolve differently, and stdout is byte-compared).
    pub fn render(&self) -> String {
        format!(
            "campaign cells: {} owned = {} journal + {} cache + {} simulated ({} cancelled, {} failed)",
            self.owned,
            self.journal_hits,
            self.cache_hits,
            self.simulated,
            self.cancelled,
            self.failed
        )
    }
}

/// A finished campaign run: the byte-stable [`CampaignReport`] plus the
/// run-specific resolution provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignRun {
    /// The byte-stable report (identical however cells were resolved).
    pub report: CampaignReport,
    /// Where each owned cell came from on *this* run.
    pub stats: CampaignRunStats,
}

/// The result of one campaign (or campaign shard).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name from the spec.
    pub name: String,
    /// Shard that produced this report (`"0/1"` = whole campaign).
    pub shard: String,
    /// Total cells in the full campaign (all shards).
    pub total_cells: usize,
    /// Finished rows, in campaign expansion order.
    pub rows: Vec<CampaignRow>,
    /// Cells that failed, as structured errors (indices are campaign
    /// expansion indices).
    pub errors: Vec<CellError>,
}

impl CampaignReport {
    /// Renders the per-cell table plus per-(platform, device, faults)
    /// aggregates.
    pub fn render(&self) -> String {
        // The Policy column appears only when some cell actually runs an
        // adaptive policy, so policy-free reports stay byte-identical to
        // the pre-policy format (CI cmp-gates this).
        let tiered = self.rows.iter().any(|r| !r.policy.is_empty());
        let mut headers = vec!["Platform", "Device", "Faults"];
        if tiered {
            headers.push("Policy");
        }
        headers.extend(["Workload", "Slowdown", "DRAM", "IPC", "p99.9(ns)"]);
        let mut t = TableData::new(
            format!(
                "campaign {} (shard {}, {} of {} cells)",
                self.name,
                self.shard,
                self.rows.len(),
                self.total_cells
            ),
            &headers,
        );
        for r in &self.rows {
            let mut row = vec![r.platform.clone(), r.device.clone(), r.faults.clone()];
            if tiered {
                row.push(if r.policy.is_empty() {
                    "static".to_string()
                } else {
                    r.policy.clone()
                });
            }
            row.extend([
                r.workload.clone(),
                format!("{:.1}%", r.slowdown * 100.0),
                format!("{:.1}%", r.breakdown.dram * 100.0),
                format!("{:.2}->{:.2}", r.local_ipc, r.target_ipc),
                r.target_p999_ns.to_string(),
            ]);
            t.push_row(row);
        }
        let mut out = t.render();
        let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
        for r in &self.rows {
            let g = join_labels([&r.platform, &r.device, &r.faults, &r.policy]);
            match groups.iter_mut().find(|(k, _)| *k == g) {
                Some((_, v)) => v.push(r.slowdown * 100.0),
                None => groups.push((g, vec![r.slowdown * 100.0])),
            }
        }
        let mut s = TableData::new(
            "campaign summary: slowdown % per setup",
            &["Setup", "n", "mean", "p50", "p90", "max"],
        );
        for (g, mut v) in groups {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite slowdowns"));
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let pick = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
            s.push_row(vec![
                g,
                v.len().to_string(),
                format!("{mean:.1}"),
                format!("{:.1}", pick(0.50)),
                format!("{:.1}", pick(0.90)),
                format!("{:.1}", v[v.len() - 1]),
            ]);
        }
        out.push('\n');
        out.push_str(&s.render());
        if !self.errors.is_empty() {
            out.push_str("\n== failed cells ==\n");
            for e in &self.errors {
                out.push_str(&format!("{e}\n"));
            }
        }
        out
    }
}

fn row_from(cell: &CampaignCell, o: &PairOutcome) -> CampaignRow {
    let [platform, device, faults, policy, _] = cell.labels.clone();
    CampaignRow {
        platform,
        device,
        faults,
        policy,
        workload: o.workload.clone(),
        suite: o.suite.label().to_string(),
        slowdown: o.slowdown,
        breakdown: o.breakdown,
        local_ipc: o.local.ipc(),
        target_ipc: o.target.ipc(),
        target_p999_ns: o.target.demand_lat_hist.percentile(99.9),
    }
}

/// Runs a campaign (or one shard of it).
///
/// Resolution order per owned cell: the `journal` (same-run resume,
/// keyed by the same fingerprint), then `cache` (cross-run warm start),
/// then simulation on the resilient worker pool. Fresh results are
/// recorded to both, and every result passes through one compact-JSON
/// round-trip so warm, cold, resumed and sharded runs serialize
/// byte-identically. The returned [`CampaignRun`] pairs the byte-stable
/// report with per-run resolution provenance ([`CampaignRunStats`]) —
/// how many cells came from the journal, the cache, or fresh
/// simulation, and how many were skipped by `policy`'s cancellation
/// token (a drained run reports them as `cancelled`, not failed, so a
/// restart can finish the campaign).
pub fn run_campaign(
    spec: &CampaignSpec,
    shard: Shard,
    journal: &mut Journal,
    cache: Option<&ResultCache>,
    policy: &CellPolicy,
) -> Result<CampaignRun, String> {
    let _span = melody_telemetry::span("campaign");
    let cells = spec.expand()?;
    let total_cells = cells.len();
    let owned: Vec<&CampaignCell> = cells.iter().filter(|c| shard.owns(c.index)).collect();
    let mut stats = CampaignRunStats {
        owned: owned.len(),
        ..Default::default()
    };
    if let Some(p) = &policy.progress {
        p.begin(owned.len());
    }

    // Pass 1 (serial): resolve journal and cache hits.
    let mut slots: Vec<Option<PairOutcome>> = Vec::with_capacity(owned.len());
    let mut todo: Vec<&CampaignCell> = Vec::new();
    for cell in &owned {
        let mut from_journal = false;
        let restored = match journal.get(&cell.key) {
            Some(json) => {
                // Cache-aware resume: a journaled cell warms the shared
                // cache too, so a resumed shard seeds later runs.
                if let Some(c) = cache {
                    let _ = c.put(&cell.key, json);
                }
                from_journal = true;
                Some(json.to_string())
            }
            None => cache.and_then(|c| c.get(&cell.key)),
        };
        match restored.and_then(|json| serde_json::from_str::<PairOutcome>(&json).ok()) {
            Some(o) => {
                slots.push(Some(o));
                if let Some(p) = &policy.progress {
                    p.tick(if from_journal {
                        crate::progress::Resolution::Journal
                    } else {
                        crate::progress::Resolution::Cache
                    });
                }
                if from_journal {
                    stats.journal_hits += 1;
                } else {
                    stats.cache_hits += 1;
                }
            }
            None => {
                slots.push(None);
                todo.push(cell);
            }
        }
    }
    stats.simulated = todo.len();
    if melody_telemetry::metrics_on() {
        melody_telemetry::count("campaign.cells", owned.len() as u64);
        melody_telemetry::count("campaign.simulated", todo.len() as u64);
    }

    // Pass 2: simulate the misses, checkpointing each as it completes.
    let journal_mx = Mutex::new(journal);
    let results = run_cells(
        &todo,
        policy,
        |_, cell| cell.label(),
        |cell| {
            let o = cell.run();
            let json = serde_json::to_string(&o).expect("outcome serializes");
            journal_mx
                .lock()
                .expect("journal lock")
                .record(&cell.key, &json)
                .expect("journal append");
            if let Some(c) = cache {
                let _ = c.put(&cell.key, &json);
            }
            // Round-trip: fresh == restored, byte for byte.
            serde_json::from_str::<PairOutcome>(&json).expect("outcome round-trips")
        },
    );

    let mut errors = Vec::new();
    let todo_slots: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i)
        .collect();
    for ((slot, cell), r) in todo_slots.into_iter().zip(&todo).zip(results) {
        match r {
            Ok(o) => slots[slot] = Some(o),
            Err(e) if e.kind == crate::exec::CellErrorKind::Cancelled => {
                // A drained cell is pending, not broken: it was counted
                // as `simulated` optimistically above; reclassify.
                stats.simulated -= 1;
                stats.cancelled += 1;
            }
            Err(e) => errors.push(CellError {
                index: cell.index,
                ..e
            }),
        }
    }
    stats.simulated -= errors.len();
    stats.failed = errors.len();

    let rows = owned
        .iter()
        .zip(&slots)
        .filter_map(|(cell, s)| s.as_ref().map(|o| row_from(cell, o)))
        .collect();
    Ok(CampaignRun {
        report: CampaignReport {
            name: spec.name.clone(),
            shard: shard.to_string(),
            total_cells,
            rows,
            errors,
        },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            platforms: vec!["emr2s".into()],
            devices: vec!["cxl-a".into()],
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

    #[test]
    fn expansion_is_platform_major_and_stable() {
        let spec = CampaignSpec {
            devices: vec!["cxl-a".into(), "cxl-b".into()],
            faults: vec!["none".into(), "retrain".into()],
            ..tiny_spec()
        };
        let cells = spec.expand().expect("expand");
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells[0].label(), "emr2s/cxl-a/none/605.mcf");
        assert_eq!(cells[3].label(), "emr2s/cxl-a/retrain/541.leela");
        assert_eq!(cells[4].label(), "emr2s/cxl-b/none/605.mcf");
        // Fingerprints are stable across expansions and unique per cell.
        let again = spec.expand().expect("expand");
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.key, b.key);
        }
        let mut keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "all cell keys distinct");
    }

    #[test]
    fn config_changes_change_the_fingerprint() {
        let base = tiny_spec().expand().expect("expand");
        let reseeded = CampaignSpec {
            seed: Some(43),
            ..tiny_spec()
        }
        .expand()
        .expect("expand");
        let refsd = CampaignSpec {
            mem_refs: Some(5_000),
            ..tiny_spec()
        }
        .expand()
        .expect("expand");
        assert_ne!(base[0].key, reseeded[0].key, "seed is hashed");
        assert_ne!(base[0].key, refsd[0].key, "mem_refs is hashed");
        // The inert fault regime hashes identically to no regime at all.
        let explicit_none = CampaignSpec {
            faults: vec!["none".into()],
            ..tiny_spec()
        }
        .expand()
        .expect("expand");
        assert_eq!(base[0].key, explicit_none[0].key);
    }

    #[test]
    fn unknown_names_are_errors() {
        let bad_platform = CampaignSpec {
            platforms: vec!["pentium3".into()],
            ..tiny_spec()
        };
        assert!(bad_platform.expand().unwrap_err().contains("pentium3"));
        let bad_device = CampaignSpec {
            devices: vec!["cxl-z".into()],
            ..tiny_spec()
        };
        assert!(bad_device.expand().unwrap_err().contains("cxl-z"));
        let bad_workload = CampaignSpec {
            workloads: vec!["999.nothing".into()],
            ..tiny_spec()
        };
        assert!(bad_workload.expand().unwrap_err().contains("999.nothing"));
        let bad_fault = CampaignSpec {
            faults: vec!["meteor".into()],
            ..tiny_spec()
        };
        assert!(bad_fault.expand().unwrap_err().contains("meteor"));
    }

    fn topo(name: &str, devices: &[&str]) -> melody_mem::TopologySpec {
        let mut nodes = vec![r#"{"id": "h", "kind": "host"}"#.to_string()];
        let mut edges = Vec::new();
        for (i, d) in devices.iter().enumerate() {
            nodes.push(format!(
                r#"{{"id": "e{i}", "kind": "expander", "device": "{d}"}}"#
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

    #[test]
    fn topologies_join_the_device_axis() {
        let spec = CampaignSpec {
            topologies: vec![topo("cxl-a-x2", &["cxl-a", "cxl-a"])],
            ..tiny_spec()
        };
        let cells = spec.expand().expect("expand");
        // Devices first, then topologies, same workload sweep each.
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].label(), "emr2s/cxl-a/none/605.mcf");
        assert_eq!(cells[2].label(), "emr2s/cxl-a-x2/none/605.mcf");
        assert_eq!(cells[2].target.name(), "CXL-Ax2");

        // A topology-only campaign is valid.
        let only = CampaignSpec {
            devices: vec![],
            topologies: vec![topo("solo", &["cxl-b"])],
            ..tiny_spec()
        };
        assert_eq!(only.expand().expect("expand").len(), 2);

        // A degenerate topology is the same cell as the plain keyword:
        // identical fingerprint, so they share cache entries.
        let plain = CampaignSpec {
            devices: vec!["cxl-b".into()],
            ..tiny_spec()
        };
        let via_topo = CampaignSpec {
            devices: vec![],
            topologies: vec![topo("cxl-b", &["cxl-b"])],
            ..tiny_spec()
        };
        assert_eq!(
            plain.expand().expect("expand")[0].key,
            via_topo.expand().expect("expand")[0].key,
        );

        // Name collisions on the axis are rejected.
        let dup = CampaignSpec {
            devices: vec!["cxl-a".into()],
            topologies: vec![topo("cxl-a", &["cxl-a"])],
            ..tiny_spec()
        };
        assert!(dup.expand().unwrap_err().contains("duplicates"));
        // Invalid topologies surface their validation error.
        let bad = CampaignSpec {
            topologies: vec![topo("bad", &["cxl-z"])],
            ..tiny_spec()
        };
        assert!(bad.expand().unwrap_err().contains("cxl-z"));
    }

    #[test]
    fn axes_are_declared_in_expansion_order() {
        // Labels are indexed by `Axis as usize` (`AxisValue::apply`,
        // `row_from`), so the declaration order must be the table's.
        for (i, axis) in AXES.iter().enumerate() {
            assert_eq!(*axis as usize, i, "{axis:?}");
        }
    }

    #[test]
    fn shard_parsing_and_ownership() {
        assert_eq!(Shard::parse("0/2"), Some(Shard { index: 0, count: 2 }));
        assert_eq!(Shard::parse("1/2"), Some(Shard { index: 1, count: 2 }));
        assert_eq!(Shard::parse("2/2"), None, "index must be < count");
        assert_eq!(Shard::parse("0/0"), None);
        assert_eq!(Shard::parse("x/2"), None);
        assert_eq!(Shard::parse("1"), None);
        let s0 = Shard::parse("0/3").expect("shard");
        let s1 = Shard::parse("1/3").expect("shard");
        let s2 = Shard::parse("2/3").expect("shard");
        for i in 0..30 {
            let owners = [s0, s1, s2].iter().filter(|s| s.owns(i)).count();
            assert_eq!(owners, 1, "cell {i} owned exactly once");
        }
        assert_eq!(Shard::full().to_string(), "0/1");
    }

    #[test]
    fn campaign_runs_and_journal_resumes() {
        let spec = tiny_spec();
        let mut j = Journal::in_memory();
        let a = run_campaign(&spec, Shard::full(), &mut j, None, &CellPolicy::default())
            .expect("campaign");
        assert_eq!(a.report.rows.len(), 2);
        assert!(a.report.errors.is_empty(), "{:?}", a.report.errors);
        assert_eq!(j.len(), 2);
        assert_eq!(a.stats.owned, 2);
        assert_eq!(a.stats.simulated, 2);
        assert_eq!(a.stats.journal_hits, 0);
        // Rerun restores everything from the journal, byte-identically.
        let b = run_campaign(&spec, Shard::full(), &mut j, None, &CellPolicy::default())
            .expect("campaign");
        assert_eq!(
            serde_json::to_string(&a.report).expect("a"),
            serde_json::to_string(&b.report).expect("b"),
        );
        assert_eq!(b.stats.journal_hits, 2);
        assert_eq!(b.stats.simulated, 0);
        assert!(a.report.render().contains("campaign summary"));
        assert!(b.stats.render().contains("2 journal"));
    }

    #[test]
    fn cancellation_interrupts_and_resume_completes() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let spec = tiny_spec();
        // Reference: an uninterrupted run.
        let mut j_ref = Journal::in_memory();
        let reference = run_campaign(
            &spec,
            Shard::full(),
            &mut j_ref,
            None,
            &CellPolicy::default(),
        )
        .expect("reference campaign");

        // Interrupted run: the token is already raised, so with the
        // worker pool at any width at least zero cells run and the rest
        // are reported cancelled, never failed.
        let token = Arc::new(AtomicBool::new(true));
        let policy = CellPolicy::default().with_cancel(token.clone());
        let mut j = Journal::in_memory();
        let drained =
            run_campaign(&spec, Shard::full(), &mut j, None, &policy).expect("drained campaign");
        assert!(drained.report.errors.is_empty(), "cancelled != failed");
        assert_eq!(drained.stats.cancelled, 2);
        assert_eq!(drained.stats.simulated, 0);

        // Restart (token lowered) finishes the remaining cells and the
        // final report is byte-identical to the uninterrupted run.
        token.store(false, std::sync::atomic::Ordering::Relaxed);
        let resumed =
            run_campaign(&spec, Shard::full(), &mut j, None, &policy).expect("resumed campaign");
        assert_eq!(
            serde_json::to_string(&reference.report).expect("ref"),
            serde_json::to_string(&resumed.report).expect("resumed"),
        );
    }
}
