//! Experiment harness: one regenerator per table and figure of the
//! paper's evaluation, shared by the `exp_*` binaries.
//!
//! Each function in [`experiments`] computes the rows/series of one paper
//! artifact and returns plain data; [`report`] renders paper-style text
//! tables. The [`scale`] module picks the victim size — experiments
//! default to the CPU-budget `Standard` scale and can be shrunk via
//! `RHB_SCALE=tiny` for smoke runs.
//!
//! The flight-recorder half of the crate persists and replays runs:
//! [`artifact`] freezes one pipeline run (config, phase timings, metrics,
//! flip ledger, fired alerts) as JSON under `results/runs/`,
//! [`timeline`] replays the snapshot timelines the `RHB_OBS_RECORD`
//! recorder persists under `results/timelines/` (and reconstructs
//! post-mortems from them),
//! [`json`] is the hand-rolled parser they all rely on, and the
//! `rhb-report` binary is the CLI over all of it.

pub mod artifact;
pub mod campaign_run;
pub mod experiments;
pub mod json;
pub mod report;
pub mod scale;
pub mod telemetry;
pub mod timeline;
