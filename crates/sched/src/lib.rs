//! # uww-sched
//!
//! Continuous micro-batch ingest: many small update windows off one event
//! timeline.
//!
//! The paper assumes one nightly batch per update window; this crate lifts
//! that assumption. A [`DeltaSource`] yields a timeline of base-view change
//! events; the [`IngestScheduler`] accumulates them into micro-batches —
//! cut on a fixed period or every tick ([`Policy`]) — re-plans each window
//! against the freshly loaded batch, and executes it through the existing
//! WAL/recovery/publishing path, so a crash mid-window resumes cleanly and
//! online readers never block.
//!
//! Windows keep the operand store to their end
//! ([`uww_core::Warehouse::execute_carried`]), and the warehouse's
//! maintained join indexes — kept current by every install — *carry over*
//! into the next window, every probe of a carried index counted apart.
//!
//! Determinism is the design center: a [`SeededSource`] timeline is a pure
//! function of its seed, the virtual clock advances by *predicted* work,
//! and the cut rule reads only the configuration — so continuous mode is
//! byte-identical to replaying the same micro-batches as independent
//! one-shot runs, the property `tests/continuous_ingest.rs` asserts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod policy;
pub mod scheduler;
pub mod source;

pub use policy::{Policy, SlaConfig};
pub use scheduler::{
    batch_of, resume_after_crash, window_wal_config, CrashState, IngestOutcome, IngestScheduler,
    SchedConfig, WindowPlanner, WindowReport,
};
pub use source::{
    events_from_str, events_to_string, ChainSource, DeltaEvent, DeltaSource, IngestQueue,
    QueueSource, ReplaySource, SeededSource, SeededSourceConfig, DEFAULT_QUEUE_CAPACITY,
};
