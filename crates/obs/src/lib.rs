#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]
//! # aqks-obs
//!
//! A lightweight, zero-dependency observability layer for the
//! keyword-to-SQL pipeline: hierarchical wall-time **spans**, named
//! **counters**, and a thread-safe [`Recorder`] that snapshots both into
//! a [`PipelineTrace`] — a span tree with self/total times that renders
//! as text or exports as Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` and Perfetto).
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** Every [`Recorder::span`] call first reads
//!    the flag the recorder was built with; when recording is off it
//!    returns an inert guard without allocating or touching any lock
//!    (verified by the `overhead` integration test with a counting
//!    allocator). The pipeline is therefore instrumented unconditionally
//!    and pays only when a trace or metrics were asked for.
//! 2. **No plumbing through layers.** A started span is pushed onto a
//!    thread-local *ambient stack*; nested [`Recorder::span`] calls and
//!    the free function [`counter`] attach to the innermost active span
//!    without the intermediate layers (matcher, executor, analyzer
//!    passes) ever seeing a recorder argument.
//! 3. **Externally-timed work joins the tree.** Measurements accumulated
//!    elsewhere (the Volcano executor's per-operator `ExecStats`) are
//!    grafted in as completed spans via [`Recorder::record_span`].
//! 4. **One record.** The span tree is where per-query telemetry is
//!    written. Work that runs on other threads (the executor's worker
//!    pools) is tallied by its caller and added to the caller's ambient
//!    span, so every span and counter is recorded on the thread that
//!    owns it.
//!
//! Alongside the per-call recorder, three sibling modules provide
//! *cumulative* telemetry with the same cost discipline:
//!
//! * [`metrics`] — an always-on registry of counters, gauges, and
//!   log-linear histograms (zero-alloc disabled path). Its per-query
//!   families are a fold of each metered query's span tree, so the
//!   registry and the trace cannot disagree;
//! * [`flight`] — a flight recorder keeping two exemplar
//!   [`PipelineTrace`]s, the slowest and the last budget-tripped query;
//!   every other query's trace is dropped when its query ends;
//! * [`expo`] — Prometheus text-format v0.0.4 and JSON exposition of a
//!   metrics snapshot.

pub mod expo;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use flight::{FlightEntry, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, Unit};
pub use recorder::{counter, current, Recorder, Span, SpanHandle};
pub use trace::{PipelineTrace, SpanNode};
