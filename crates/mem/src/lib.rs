//! Memory device models for Melody.
//!
//! This crate is the *device substrate* of the Melody reproduction: it
//! models every kind of memory backend the ASPLOS '25 paper measures —
//! socket-local DRAM behind an integrated memory controller (iMC),
//! cross-socket NUMA memory, and CXL type-3 memory expanders — at the
//! memory-request level, with enough microarchitectural mechanism that the
//! paper's device-level findings *emerge* rather than being hard-coded:
//!
//! - **Queueing-driven loaded latency** (Figure 3a): channels, links and
//!   scheduler slots are [`melody_sim::ServerPool`]s, so latency rises as
//!   offered load approaches capacity.
//! - **CXL tail latency** (Figures 3b/3c/4): transaction-layer jitter,
//!   credit-exhaustion congestion windows, rare link-layer retries, and
//!   load-sensitive scheduler hiccups, all parametrised per device.
//! - **Full-duplex vs shared-bus bandwidth** (Figure 5): ASIC CXL devices
//!   carry reads and writes on independent link directions (peak bandwidth
//!   under mixed R/W), while local DDR and the FPGA-based device share one
//!   data path with direction-turnaround penalties (peak under read-only).
//! - **Row-buffer and refresh effects**: a DDR backend with per-bank open
//!   rows and periodic refresh windows supplies the baseline latency
//!   variation that local/NUMA memory shows (p99.9−p50 of tens of ns).
//!
//! Devices are described by a serialisable [`DeviceSpec`] and instantiated
//! per run with [`DeviceSpec::build`]; presets mirroring the paper's
//! Table 1 testbed live in [`presets`]. Every composition of devices — a
//! NUMA or switch hop, an interleave set, an address-range split, a CXL
//! switch — builds one [`CompositeDevice`]: built children, a route, and
//! an optional link. Only [`TieredDevice`] (page residency that moves
//! every epoch) and [`CpmuDevice`] (an observer) wrap devices otherwise.
//!
//! # Example
//!
//! ```
//! use melody_mem::{presets, probe};
//!
//! let spec = presets::cxl_a();
//! let mut dev = spec.build(42);
//! let idle = probe::idle_latency_ns(dev.as_mut(), 1000);
//! // CXL-A idle latency is ~214 ns in the paper's testbed.
//! assert!((180.0..260.0).contains(&idle), "idle {idle}");
//! ```

#![warn(missing_docs)]

mod composite;
mod cpmu;
mod cxl;
mod device;
mod dram;
pub mod faults;
mod imc;
pub mod interleave;
mod numa;
pub mod policy;
pub mod presets;
pub mod probe;
mod request;
mod spec;
mod switch;
mod telemetry_hooks;
mod tiering;
pub mod topology;

pub use composite::CompositeDevice;
pub use cpmu::{CpmuDevice, CpmuReport};
pub use cxl::{CxlConfig, CxlDevice, ThermalConfig};
pub use device::{AccessBreakdown, DeviceStats, MemoryDevice};
pub use dram::{DramBackend, DramTiming};
pub use faults::{FaultConfig, FaultSchedule, RasCounters};
pub use imc::{ImcConfig, ImcDevice};
pub use numa::NumaHopConfig;
pub use policy::{GuideWindow, PolicyKind, TieringConfig, POLICIES};
pub use request::{MemRequest, RequestKind};
pub use spec::{AnalyticProfile, DeviceSpec, SPEC_SCHEMA_VERSION};
pub use switch::SwitchConfig;
pub use tiering::{TierCounters, TieredDevice};
pub use topology::{Fabric, TopoEdge, TopoNode, TopologySpec};
