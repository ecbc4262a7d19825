//! # pab-telemetry — deterministic observability for PAB simulations
//!
//! The paper's headline results are *trajectories*, not endpoints: Fig. 8's
//! closed-loop rate ladder and Fig. 9's power-up behaviour only show up in
//! a slot-by-slot narration of what the MAC and the receiver actually did.
//! The simulators compute all of that state — EWMA link quality, retry and
//! backoff windows, quarantine, erasure-vs-CRC verdicts, harvested energy —
//! and, before this crate, threw it away.
//!
//! This crate is the sink: a zero-dependency, allocation-light event
//! recorder the rest of the workspace threads a `&mut` of through the
//! stack. Design rules, in priority order:
//!
//! 1. **Deterministic.** Events are stamped with *simulation* time pushed
//!    in by the caller ([`Recorder::begin_slot`] / [`Recorder::advance_clock`]),
//!    never a wall clock — the workspace's `no-wallclock-no-threadrng`
//!    lint applies to this crate like any other library crate. Every
//!    export is a pure function of the recorded events, so two
//!    same-seed runs (serial or parallel, any thread count) export
//!    byte-identical files.
//! 2. **Bounded.** The event log is a ring buffer with a hard capacity;
//!    when full, the *oldest* event is evicted and counted in
//!    [`Recorder::events_dropped`] — overflow is explicit accounting, never
//!    an allocation spiral or a silent truncation.
//! 3. **Allocation-light.** [`Event`] is a `Copy` enum (no strings, no
//!    boxes); counters and histogram names are `&'static str`; the hot
//!    `record` path does no allocation once the ring is at capacity.
//!
//! The exporters ([`export::events_csv`], [`export::summary_csv`], and
//! the compact [`binfmt::events_bin`])
//! take a slice of recorders and emit rows in recorder order then event
//! order, which is how the sweep engine guarantees parallel == serial
//! byte-identity: one recorder per sweep point, merged in point-index
//! order.

pub mod binfmt;
pub mod event;
pub mod export;
pub mod metrics;
pub mod recorder;

pub use binfmt::{decode_events_bin, events_bin, BinRecord};
pub use event::{Event, FaultKind, TimedEvent};
pub use metrics::{Counters, Histogram};
pub use recorder::{Recorder, DEFAULT_CAPACITY};

/// Errors from telemetry configuration (never from the hot record path,
/// which is total by design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryError {
    /// A histogram was configured with a non-finite or inverted range, or
    /// zero buckets.
    InvalidHistogram(&'static str),
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::InvalidHistogram(what) => {
                write!(f, "invalid histogram configuration: {what}")
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

/// Format an `f64` for export. Rust's `Display` for `f64` is the shortest
/// round-trip representation — fully deterministic for a given bit
/// pattern, platform-independent, and what the text exporters use so the
/// events and summary CSVs agree on every digit.
pub(crate) fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x.is_nan() {
        "nan".to_string()
    } else if x > 0.0 {
        "inf".to_string()
    } else {
        "-inf".to_string()
    }
}
