//! # Melody: systematic CXL memory characterization and analysis
//!
//! A full-system reproduction of *"Systematic CXL Memory Characterization
//! and Performance Analysis at Scale"* (Liu et al., ASPLOS '25) as a Rust
//! library. The paper's testbed — 4 real CXL memory expanders, 5 Intel
//! server platforms, 265 workloads, Intel performance counters — is
//! replaced by a deterministic discrete-event simulation substrate (see
//! `DESIGN.md` for the substitution argument); everything above the
//! hardware line is the paper's methodology, faithfully implemented:
//!
//! - device characterization probes and the MIO microbenchmark
//!   ([`melody_mio`]), MLC-style loaded-latency sweeps
//!   ([`melody_workloads::mlc`]);
//! - the 265-workload population ([`melody_workloads::registry`]);
//! - the Spa stall-based root-cause analysis ([`melody_spa`]);
//! - per-figure/table experiment harnesses ([`experiments`]).
//!
//! ## Quickstart
//!
//! ```
//! use melody::prelude::*;
//!
//! // Characterize CXL-B: idle latency and tail behaviour.
//! let mio = melody_mio::run(
//!     &presets::cxl_b(),
//!     &melody_mio::MioConfig { accesses: 5_000, ..Default::default() },
//! );
//! assert!(mio.latency.percentile(50.0) > 200);
//!
//! // Run one workload on local DRAM vs CXL-B and break the slowdown down.
//! let wl = registry::by_name("605.mcf").expect("known workload");
//! let opts = RunOptions { mem_refs: 5_000, ..Default::default() };
//! let pair = run_pair(
//!     &Platform::emr2s(), &presets::local_emr(), &presets::cxl_b(), &wl, &opts,
//! );
//! assert!(pair.slowdown > 0.0, "mcf slows down on CXL-B");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod exec;
pub mod experiments;
pub mod journal;
pub mod progress;
pub mod report;
mod runner;
pub mod server;

pub use runner::{run_pair, run_workload, PairOutcome, RunOptions};

/// Convenient re-exports of the most used items across the workspace.
pub mod prelude {
    pub use crate::cache::{CacheStats, ResultCache};
    pub use crate::campaign::{
        device_by_name, platform_by_name, run_campaign, CampaignReport, CampaignRun,
        CampaignRunStats, CampaignSpec, Shard,
    };
    pub use crate::exec::{CellError, CellErrorKind, CellPolicy, RetryStats};
    pub use crate::experiments::Scale;
    pub use crate::journal::Journal;
    pub use crate::progress::{Progress, ProgressSnapshot};
    pub use crate::report::{Series, TableData};
    pub use crate::runner::{run_pair, run_workload, PairOutcome, RunOptions};
    pub use crate::server::{ServeConfig, Server, ServerHandle};
    pub use melody_cpu::{Core, CoreConfig, CounterSet, Platform, RunResult, Slot};
    pub use melody_mem::{presets, probe, DeviceSpec, Fabric, MemoryDevice, TopologySpec};
    pub use melody_spa::{breakdown, estimates, Breakdown};
    pub use melody_stats::{Cdf, LatencyHistogram};
    pub use melody_workloads::{registry, SlotStream, WorkloadSpec};
}
