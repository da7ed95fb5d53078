//! Deterministic observability for the IoBT platform.
//!
//! The runtime, simulator, synthesis engine and adaptation services emit
//! structured [`TraceEvent`]s through a shared [`Recorder`] handle. Three
//! properties distinguish this layer from a conventional logger:
//!
//! * **Sim-time stamping.** Every record carries the *simulation* clock
//!   (integer microseconds) plus a monotone sequence number — never the
//!   wall clock. Two runs of the same seed therefore produce
//!   byte-identical traces (lint rule R2 applies to this crate).
//! * **Deterministic aggregation.** The recorder's registry keeps
//!   counters, gauges and fixed-bucket histograms in ordered maps, and
//!   folds into a [`MetricsDigest`] that is `PartialEq`-comparable and
//!   fingerprintable across runs.
//! * **Near-zero cost when off.** A disabled [`Recorder`] is a `None`
//!   handle: every recording site is a single branch. The [`NullSink`]
//!   keeps metrics but discards trace records.
//!
//! Sinks are pluggable: [`NullSink`] (metrics only), [`RingSink`]
//! (bounded in-memory buffer for tests and post-mortems) and
//! [`JsonlSink`] (one JSON object per line, stable key order). Sampling
//! is per-subsystem and deterministic (`every_nth`), and gates only the
//! sink — metrics always observe every event.
//!
//! ```
//! use iobt_obs::{Recorder, Subsystem, TraceEvent};
//!
//! let (rec, ring) = Recorder::memory(1024);
//! rec.set_time_us(1_500_000);
//! rec.record(TraceEvent::MsgSent { from: 3, to: 9 });
//! assert_eq!(ring.len(), 1);
//! assert_eq!(rec.metrics_digest().counter("netsim.msg_sent"), Some(1));
//! assert_eq!(Subsystem::Netsim.as_str(), "netsim");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod recorder;
mod sink;

pub use event::{push_u64, DropCause, EventSchema, Subsystem, TraceEvent, TraceRecord};
pub use metrics::{fnv1a, Histogram, HistogramSnapshot, MetricsDigest};
pub use recorder::{Recorder, RecorderCheckpoint, SamplingConfig};
pub use sink::{JsonlSink, NullSink, RingHandle, RingSink, SharedBytes, TraceSink};
