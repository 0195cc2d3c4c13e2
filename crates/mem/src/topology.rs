//! Declarative fabric topologies.
//!
//! A [`TopologySpec`] describes a CXL memory fabric as a tree: one `host`
//! node, optional `switch` nodes, and `expander` leaves that name a
//! device class from [`crate::presets::DEVICE_CLASSES`]. Edges connect a
//! parent to each child. [`TopologySpec::validate`] checks the shape and
//! every name against the known vocabularies (errors list the valid
//! spellings, so a typo'd spec fails fast with an actionable message),
//! producing a [`Fabric`]; [`Fabric::lower`] then compiles the tree into
//! the existing [`DeviceSpec`] algebra:
//!
//! - a host with one child lowers to that child directly — the
//!   **degenerate topology** is *exactly* the plain device spec, so its
//!   canonical JSON, cache fingerprint, and simulation output are
//!   byte-identical to a non-topology run;
//! - a host with several children lowers to hardware interleaving
//!   ([`DeviceSpec::Interleaved`]) at the spec's `interleave_size`;
//! - a switch lowers to [`DeviceSpec::Switch`]: its children interleave
//!   *and* contend for the switch's shared, credit-limited upstream link;
//! - a node's `faults` regime attaches a per-link fault schedule to the
//!   devices beneath it (a campaign-level `--faults` regime other than
//!   `none`, applied later, overwrites these per-node schedules).
//!
//! # Example
//!
//! ```
//! use melody_mem::topology::TopologySpec;
//!
//! let spec: TopologySpec = serde_json::from_str(
//!     r#"{
//!         "name": "2-way",
//!         "nodes": [
//!             {"id": "h", "kind": "host"},
//!             {"id": "e0", "kind": "expander", "device": "cxl-d"},
//!             {"id": "e1", "kind": "expander", "device": "cxl-d"}
//!         ],
//!         "edges": [{"from": "h", "to": "e0"}, {"from": "h", "to": "e1"}]
//!     }"#,
//! )
//! .unwrap();
//! let fabric = spec.validate().unwrap();
//! assert_eq!(fabric.lower().name(), "CXL-Dx2");
//! ```

use serde::{Deserialize, Serialize};

use crate::faults::{FaultConfig, REGIMES};
use crate::presets::{device_class, DEVICE_CLASSES};
use crate::spec::DeviceSpec;
use crate::switch::SwitchConfig;

/// Node kinds a topology may contain. `kind` is a plain string in the
/// serialized form; validation checks it against this list.
pub const NODE_KINDS: &[&str] = &["host", "switch", "expander"];

/// Interleave granularity assumed when a spec omits `interleave_size`,
/// bytes — the typical CXL HDM-decoder granularity.
pub const DEFAULT_INTERLEAVE_SIZE: u64 = 256;

/// One node of a topology: the host root, a switch, or an expander leaf.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopoNode {
    /// Unique node identifier, referenced by edges.
    pub id: String,
    /// Node kind: `"host"`, `"switch"`, or `"expander"`.
    pub kind: String,
    /// Device class served by an expander (see
    /// [`crate::presets::DEVICE_CLASSES`]). Required on expanders,
    /// forbidden elsewhere.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub device: Option<String>,
    /// Switch forwarding latency in ns (switch nodes only; default 190).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub latency_ns: Option<f64>,
    /// Switch upstream link bandwidth in GB/s (switch nodes only;
    /// default 60).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub upstream_gbps: Option<f64>,
    /// Switch upstream flow-control credits (switch nodes only;
    /// default 24).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub credits: Option<u32>,
    /// Advertised capacity in GiB. Annotation only (melody models
    /// cacheline traffic, not allocation), but validated positive.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub capacity_gib: Option<u64>,
    /// Fault regime injected on this node's link (see
    /// [`crate::faults::REGIMES`]): on an expander it faults that device;
    /// on a switch it faults every device behind it. A campaign-level
    /// fault regime other than `none` overrides these per-node schedules.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<String>,
}

/// A parent→child link between two topology nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopoEdge {
    /// Parent node id.
    pub from: String,
    /// Child node id.
    pub to: String,
}

/// A declarative fabric topology, as parsed from JSON. Call
/// [`TopologySpec::validate`] to check it and obtain a [`Fabric`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Topology name: the device-axis label campaign grids report.
    pub name: String,
    /// Hardware interleave granularity in bytes across sibling expanders
    /// ([`DEFAULT_INTERLEAVE_SIZE`] when omitted). Read it through
    /// [`TopologySpec::granularity`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub interleave_size: Option<u64>,
    /// Fabric nodes.
    pub nodes: Vec<TopoNode>,
    /// Parent→child links.
    pub edges: Vec<TopoEdge>,
}

/// A validated topology: shape checked, every name resolved. Obtained
/// from [`TopologySpec::validate`]; [`Fabric::lower`] compiles it to a
/// [`DeviceSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fabric {
    spec: TopologySpec,
    /// Children of each node, indexed parallel to `spec.nodes`, in edge
    /// declaration order.
    children: Vec<Vec<usize>>,
    host: usize,
}

fn fmt_list(items: &[&str]) -> String {
    items.join(", ")
}

impl TopologySpec {
    /// Reads and parses a topology spec from a JSON file. The result
    /// still needs [`TopologySpec::validate`].
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    }

    /// Effective interleave granularity in bytes
    /// ([`DEFAULT_INTERLEAVE_SIZE`] when the spec omits it).
    pub fn granularity(&self) -> u64 {
        self.interleave_size.unwrap_or(DEFAULT_INTERLEAVE_SIZE)
    }

    /// Validates the topology and returns the checked [`Fabric`].
    ///
    /// Every error message names the offending node and lists the valid
    /// alternatives, so a CLI can print it verbatim and exit.
    pub fn validate(self) -> Result<Fabric, String> {
        let t = &self;
        if t.name.is_empty() {
            return Err("topology needs a non-empty `name`".into());
        }
        let granularity = t.granularity();
        if granularity == 0 || granularity % 64 != 0 {
            return Err(format!(
                "topology `{}`: interleave_size {granularity} must be a positive multiple of 64",
                t.name
            ));
        }
        if t.nodes.is_empty() {
            return Err(format!("topology `{}` has no nodes", t.name));
        }

        // Unique ids, known kinds, per-kind field rules.
        let mut index = std::collections::BTreeMap::new();
        for (i, n) in t.nodes.iter().enumerate() {
            if index.insert(n.id.clone(), i).is_some() {
                return Err(format!(
                    "topology `{}`: duplicate node id `{}`",
                    t.name, n.id
                ));
            }
            if !NODE_KINDS.contains(&n.kind.as_str()) {
                return Err(format!(
                    "topology `{}`: node `{}` has unknown kind `{}` (valid kinds: {})",
                    t.name,
                    n.id,
                    n.kind,
                    fmt_list(NODE_KINDS)
                ));
            }
            match n.kind.as_str() {
                "expander" => {
                    let dev = n.device.as_deref().ok_or_else(|| {
                        format!(
                            "topology `{}`: expander `{}` needs a `device` (valid classes: {})",
                            t.name,
                            n.id,
                            fmt_list(DEVICE_CLASSES)
                        )
                    })?;
                    if device_class(dev).is_none() {
                        return Err(format!(
                            "topology `{}`: expander `{}` has unknown device class `{}` \
                             (valid classes: {})",
                            t.name,
                            n.id,
                            dev,
                            fmt_list(DEVICE_CLASSES)
                        ));
                    }
                }
                _ => {
                    if n.device.is_some() {
                        return Err(format!(
                            "topology `{}`: `device` is only valid on expanders, not on {} `{}`",
                            t.name, n.kind, n.id
                        ));
                    }
                }
            }
            if n.kind != "switch"
                && (n.latency_ns.is_some() || n.upstream_gbps.is_some() || n.credits.is_some())
            {
                return Err(format!(
                    "topology `{}`: latency_ns/upstream_gbps/credits are only valid on \
                     switches, not on {} `{}`",
                    t.name, n.kind, n.id
                ));
            }
            if n.latency_ns.is_some_and(|v| v <= 0.0)
                || n.upstream_gbps.is_some_and(|v| v <= 0.0)
                || n.credits.is_some_and(|v| v == 0)
            {
                return Err(format!(
                    "topology `{}`: switch `{}` parameters must be positive",
                    t.name, n.id
                ));
            }
            if n.capacity_gib.is_some_and(|v| v == 0) {
                return Err(format!(
                    "topology `{}`: node `{}` capacity_gib must be positive",
                    t.name, n.id
                ));
            }
            if let Some(f) = n.faults.as_deref() {
                if n.kind == "host" {
                    return Err(format!(
                        "topology `{}`: `faults` is only valid on switches and expanders, \
                         not on host `{}`",
                        t.name, n.id
                    ));
                }
                if FaultConfig::by_name(f).is_none() {
                    return Err(format!(
                        "topology `{}`: node `{}` has unknown fault regime `{}` \
                         (valid regimes: {})",
                        t.name,
                        n.id,
                        f,
                        fmt_list(REGIMES)
                    ));
                }
            }
        }

        // Edges reference known nodes; every non-host has one parent.
        let ids: Vec<&str> = t.nodes.iter().map(|n| n.id.as_str()).collect();
        let mut children = vec![Vec::new(); t.nodes.len()];
        let mut parents = vec![0usize; t.nodes.len()];
        for e in &t.edges {
            let lookup = |id: &str| {
                index.get(id).copied().ok_or_else(|| {
                    format!(
                        "topology `{}`: edge {}->{} references unknown node `{}` (nodes: {})",
                        t.name,
                        e.from,
                        e.to,
                        id,
                        fmt_list(&ids)
                    )
                })
            };
            let from = lookup(&e.from)?;
            let to = lookup(&e.to)?;
            children[from].push(to);
            parents[to] += 1;
        }

        let hosts: Vec<usize> = t
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == "host")
            .map(|(i, _)| i)
            .collect();
        let host = match hosts.as_slice() {
            [h] => *h,
            [] => return Err(format!("topology `{}` needs exactly one host node", t.name)),
            many => {
                return Err(format!(
                    "topology `{}` has {} host nodes ({}); exactly one is allowed",
                    t.name,
                    many.len(),
                    fmt_list(
                        &many
                            .iter()
                            .map(|&i| t.nodes[i].id.as_str())
                            .collect::<Vec<_>>()
                    )
                ))
            }
        };
        for (i, n) in t.nodes.iter().enumerate() {
            let want = usize::from(i != host);
            if parents[i] != want {
                return Err(format!(
                    "topology `{}`: {} `{}` has {} parent edges, expected {}",
                    t.name, n.kind, n.id, parents[i], want
                ));
            }
            let has_children = !children[i].is_empty();
            if n.kind == "expander" && has_children {
                return Err(format!(
                    "topology `{}`: expander `{}` cannot have children",
                    t.name, n.id
                ));
            }
            if n.kind != "expander" && !has_children {
                return Err(format!(
                    "topology `{}`: {} `{}` needs at least one child",
                    t.name, n.kind, n.id
                ));
            }
        }

        // Reachability from the host (per-parent counting already rules
        // out most malformed shapes; this catches detached cycles).
        let mut seen = vec![false; t.nodes.len()];
        let mut stack = vec![host];
        while let Some(i) = stack.pop() {
            if !std::mem::replace(&mut seen[i], true) {
                stack.extend(&children[i]);
            }
        }
        let unreachable: Vec<&str> = t
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !seen[*i])
            .map(|(_, n)| n.id.as_str())
            .collect();
        if !unreachable.is_empty() {
            return Err(format!(
                "topology `{}`: nodes not reachable from the host: {}",
                t.name,
                fmt_list(&unreachable)
            ));
        }

        Ok(Fabric {
            children,
            host,
            spec: self,
        })
    }
}

impl Fabric {
    /// Topology name (the campaign device-axis label).
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Compiles the fabric into the [`DeviceSpec`] algebra (see the
    /// module docs for the lowering rules). A single-expander topology
    /// lowers to exactly that expander's preset spec, keeping the
    /// degenerate case byte-identical to a non-topology run.
    pub fn lower(&self) -> DeviceSpec {
        let host_kids = &self.children[self.host];
        if let [only] = host_kids.as_slice() {
            return self.lower_node(*only);
        }
        DeviceSpec::Interleaved {
            granularity: self.spec.granularity(),
            parts: host_kids.iter().map(|&c| self.lower_node(c)).collect(),
        }
    }

    fn lower_node(&self, i: usize) -> DeviceSpec {
        let n = &self.spec.nodes[i];
        let spec = match n.kind.as_str() {
            "expander" => device_class(n.device.as_deref().expect("validated"))
                .expect("validated device class"),
            "switch" => {
                let defaults = SwitchConfig::default();
                DeviceSpec::Switch {
                    switch: SwitchConfig {
                        latency_ns: n.latency_ns.unwrap_or(defaults.latency_ns),
                        upstream_gbps: n.upstream_gbps.unwrap_or(defaults.upstream_gbps),
                        credits: n.credits.unwrap_or(defaults.credits),
                    },
                    granularity: self.spec.granularity(),
                    parts: self.children[i]
                        .iter()
                        .map(|&c| self.lower_node(c))
                        .collect(),
                }
            }
            other => unreachable!("validated kind {other}"),
        };
        match n.faults.as_deref() {
            Some(f) => spec.with_faults(FaultConfig::by_name(f).expect("validated fault regime")),
            None => spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn parse(json: &str) -> TopologySpec {
        serde_json::from_str(json).expect("valid JSON")
    }

    fn single(device: &str) -> TopologySpec {
        parse(&format!(
            r#"{{
                "name": "one",
                "nodes": [
                    {{"id": "h", "kind": "host"}},
                    {{"id": "e0", "kind": "expander", "device": "{device}"}}
                ],
                "edges": [{{"from": "h", "to": "e0"}}]
            }}"#
        ))
    }

    fn two_way() -> TopologySpec {
        parse(
            r#"{
                "name": "pair",
                "nodes": [
                    {"id": "h", "kind": "host"},
                    {"id": "e0", "kind": "expander", "device": "cxl-b"},
                    {"id": "e1", "kind": "expander", "device": "cxl-b"}
                ],
                "edges": [{"from": "h", "to": "e0"}, {"from": "h", "to": "e1"}]
            }"#,
        )
    }

    fn switched() -> TopologySpec {
        parse(
            r#"{
                "name": "shared",
                "nodes": [
                    {"id": "h", "kind": "host"},
                    {"id": "sw", "kind": "switch", "upstream_gbps": 22.0},
                    {"id": "e0", "kind": "expander", "device": "cxl-b"},
                    {"id": "e1", "kind": "expander", "device": "cxl-b"}
                ],
                "edges": [
                    {"from": "h", "to": "sw"},
                    {"from": "sw", "to": "e0"},
                    {"from": "sw", "to": "e1"}
                ]
            }"#,
        )
    }

    #[test]
    fn degenerate_topology_lowers_to_the_plain_preset() {
        let fabric = single("cxl-b").validate().expect("valid");
        let lowered = fabric.lower();
        assert_eq!(lowered, presets::cxl_b());
        // Byte-identity is what the campaign cache keys on.
        assert_eq!(lowered.canonical_json(), presets::cxl_b().canonical_json());
    }

    #[test]
    fn two_expanders_lower_to_interleave() {
        let lowered = two_way().validate().expect("valid").lower();
        assert_eq!(lowered, presets::cxl_b().interleaved(2));
        assert_eq!(lowered.name(), "CXL-Bx2");
    }

    #[test]
    fn switch_node_lowers_to_switch_spec() {
        let lowered = switched().validate().expect("valid").lower();
        match &lowered {
            DeviceSpec::Switch { switch, parts, .. } => {
                assert_eq!(switch.upstream_gbps, 22.0);
                assert_eq!(switch.latency_ns, 190.0, "default fills in");
                assert_eq!(parts.len(), 2);
            }
            other => panic!("expected Switch, got {other:?}"),
        }
        assert_eq!(lowered.name(), "CXL-Bx2+Switch");
        let _ = lowered.build(1);
    }

    #[test]
    fn node_faults_attach_to_lowered_devices() {
        let mut t = single("cxl-b");
        t.nodes[1].faults = Some("poison".into());
        let lowered = t.validate().expect("valid").lower();
        match &lowered {
            DeviceSpec::Cxl(cfg) => assert!(cfg.faults.is_some()),
            other => panic!("expected Cxl, got {other:?}"),
        }
    }

    #[test]
    fn inert_fault_regime_keeps_degenerate_identity() {
        let mut t = single("cxl-b");
        t.nodes[1].faults = Some("none".into());
        let lowered = t.validate().expect("valid").lower();
        assert_eq!(lowered.canonical_json(), presets::cxl_b().canonical_json());
    }

    #[test]
    fn spec_roundtrips_and_default_interleave_is_skipped() {
        let t = two_way();
        let json = serde_json::to_string(&t).expect("serialise");
        assert!(!json.contains("interleave_size"), "{json}");
        let back: TopologySpec = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(t, back);
        assert_eq!(back.granularity(), 256);
    }

    #[test]
    fn unknown_device_class_lists_the_valid_ones() {
        let err = single("cxl-z").validate().unwrap_err();
        assert!(err.contains("cxl-z"), "{err}");
        assert!(err.contains("cxl-d"), "error must list classes: {err}");
    }

    #[test]
    fn unknown_kind_lists_the_valid_ones() {
        let mut t = single("cxl-b");
        t.nodes[1].kind = "router".into();
        let err = t.validate().unwrap_err();
        assert!(err.contains("router") && err.contains("expander"), "{err}");
    }

    #[test]
    fn edge_to_unknown_node_lists_the_known_ids() {
        let mut t = single("cxl-b");
        t.edges.push(TopoEdge {
            from: "h".into(),
            to: "ghost".into(),
        });
        let err = t.validate().unwrap_err();
        assert!(err.contains("ghost") && err.contains("e0"), "{err}");
    }

    #[test]
    fn unknown_fault_regime_lists_the_valid_ones() {
        let mut t = single("cxl-b");
        t.nodes[1].faults = Some("meteor".into());
        let err = t.validate().unwrap_err();
        assert!(err.contains("meteor") && err.contains("crc-storm"), "{err}");
    }

    #[test]
    fn shape_errors_are_rejected() {
        // Two hosts (e0 becomes a second root).
        let mut t = two_way();
        t.nodes[1].kind = "host".into();
        t.nodes[1].device = None;
        let err = t.validate().unwrap_err();
        assert!(err.contains("2 host nodes"), "{err}");

        // Unreachable node (self-contained cycle off to the side).
        let mut t = single("cxl-b");
        t.nodes.push(TopoNode {
            id: "lost".into(),
            kind: "expander".into(),
            device: Some("cxl-a".into()),
            latency_ns: None,
            upstream_gbps: None,
            credits: None,
            capacity_gib: None,
            faults: None,
        });
        assert!(t.validate().unwrap_err().contains("lost"));

        // Bad interleave granularity.
        let mut t = two_way();
        t.interleave_size = Some(100);
        assert!(t.validate().unwrap_err().contains("multiple of 64"));

        // Switch parameters on an expander.
        let mut t = single("cxl-b");
        t.nodes[1].credits = Some(8);
        assert!(t.validate().unwrap_err().contains("only valid on switches"));

        // Host with a device.
        let mut t = single("cxl-b");
        t.nodes[0].device = Some("cxl-a".into());
        assert!(t
            .validate()
            .unwrap_err()
            .contains("only valid on expanders"));
    }
}
