//! # glitchlock-jobs
//!
//! Deterministic parallel campaign orchestration with checkpoint/resume.
//!
//! The paper's evidence is a matrix — benchmarks × lockers × key widths ×
//! attacks (Tables I–II). This crate runs that matrix as a **campaign**:
//!
//! * [`CampaignSpec`] (`spec`) — a small declarative text format for the
//!   matrix plus tuning, with a canonical rendering and a stable
//!   fingerprint.
//! * [`pool`] — the worker layer: [`parallel_map`] (the scoped fan-out the
//!   bench binaries use, re-exported by `glitchlock-bench`) and
//!   [`run_pool`], a work-stealing pool that supervises every attempt on a
//!   fresh thread with a per-job wall-clock timeout, bounded retry with
//!   backoff, and a halt token.
//! * [`job`] — one cell of the matrix: lock, attack, classify the outcome
//!   into the paper's verdict vocabulary. Jobs seed their RNG from their
//!   own id, so results are independent of scheduling.
//! * [`journal`] — the JSON-lines checkpoint: one flushed line per retired
//!   job, letting `--resume` skip completed work after a kill and refuse
//!   foreign specs.
//! * [`corruption`] — render-time corruptibility rows: when the spec has
//!   a `count` directive, every bench × locker cell gets the three
//!   `glitchlock-count` scores (err/dip/wrong-keys), seeded from the spec
//!   fingerprint so they never touch the journal.
//! * [`report`] — text + JSON campaign reports in spec order, excluding
//!   wall-clock so `--jobs 1`, `--jobs 8`, and kill-then-resume runs are
//!   byte-identical.
//! * [`merge`] — shard-journal reassembly: `--shard i/n` runs write
//!   per-shard journals, and the merge rebuilds the canonical record list
//!   (spec-hash enforced, duplicates and gaps refused) so a sharded
//!   campaign's report is byte-identical to a single-process run.
//!
//! The determinism contract, precisely: for a fixed spec, the *report* is
//! a pure function of the spec. Scheduling, worker count, retries, and
//! resume points only affect the journal (which records `attempts` and
//! `wall_ms`) and the obs trace — never the report.

#![deny(missing_docs)]

pub mod campaign;
pub mod corruption;
pub mod job;
pub mod journal;
pub mod merge;
pub mod pool;
pub mod report;
pub mod spec;

pub use campaign::{deterministic_metrics, run_campaign, CampaignConfig, CampaignResult};
pub use job::{AttackKind, JobSpec, LockerKind, Tuning};
pub use journal::{JobRecord, JournalWriter};
pub use merge::{merge_journals, parse_shard};
pub use pool::{parallel_map, run_pool, worker_count, Attempt, JobTermination, PoolConfig};
pub use spec::{check_retired, fnv1a64, CampaignSpec, CountDirective};
