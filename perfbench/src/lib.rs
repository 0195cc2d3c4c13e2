//! End-to-end and per-layer benchmark of the Melody simulator.
//!
//! Five workloads (four batch campaigns and a campaign server under a
//! closed loop) are measured through the library's public API only:
//! `CampaignSpec`, `run_campaign`, `Server::start` and its client,
//! `Core`, `SlotStream`, `DeviceSpec::build`, `melody_spa::run_interval`,
//! `ResultCache` and `Journal`. See `README.md` for the command, the
//! workloads and the metrics.

mod calib;
pub mod heap;
pub mod ladder;
pub mod metrics;
pub mod serve;
pub mod timed;
pub mod trace;
pub mod workload;
