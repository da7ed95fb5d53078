//! # iobt-bridge — the fault-tolerant edge bridge
//!
//! The paper's deployment story (§V) does not end at the simulator
//! boundary: battlefield IoT nodes feed command posts and analytics
//! back-ends over links that are contested by construction. This crate
//! is that last hop — an edge daemon that drains a mission's trace
//! stream onto a stable topic hierarchy
//! (`iobt/<mission>/<node>/<kind>`, one deterministic JSON line per
//! frame) over a pluggable [`Transport`], and accepts external tasking
//! commands back in through the mission's acked `TaskBoard` path.
//!
//! Robustness is the point, so the failure behaviour is the API:
//!
//! * **Reconnect** — capped exponential backoff with seeded jitter and
//!   a tick-based heartbeat, through the
//!   [`ConnState`] machine `Connected → Degraded → Reconnecting →
//!   GaveUp`.
//! * **Bounded buffering** — a fixed-capacity egress ring with three
//!   [`OverflowPolicy`]s and an exactly-once ledger:
//!   `delivered + dropped + buffered == emitted`, always
//!   ([`BridgeReport::accounted`]).
//! * **Idempotent ingress** — commands carry `(src, seq)` and are
//!   applied at most once; torn frames produce typed errors, never
//!   panics.
//! * **Graceful detach** — when the reconnect budget is exhausted the
//!   bridge discards its backlog (counted), stops, and the mission
//!   runs on. Mission digests are bit-identical with or without a
//!   bridge attached, under every fault profile of
//!   [`FaultyTransport`] — the bridge observes through a trace sink
//!   and keeps its own recorder, so it *cannot* write to the
//!   mission's ledger.
//!
//! ```
//! use iobt_bridge::{memory_pair, Bridge, BridgeConfig};
//! use iobt_obs::{Recorder, TraceEvent};
//!
//! let (transport, consumer) = memory_pair();
//! let bridge = Bridge::new(BridgeConfig { mission: 7, ..Default::default() }, Box::new(transport));
//! let recorder = Recorder::with_sink(Box::new(bridge.sink()));
//! recorder.record(TraceEvent::MsgSent { from: 3, to: 9 });
//! bridge.pump();
//! let frame = String::from_utf8(consumer.take_frames().remove(0)).unwrap();
//! assert!(frame.starts_with("{\"topic\":\"iobt/7/3/msg_sent\""));
//! assert!(bridge.report().accounted());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod bridge;
pub mod faulty;
pub mod frame;
pub mod transport;

pub use bridge::{
    Bridge, BridgeConfig, BridgeError, BridgeReport, BridgeSink, ConnState, OverflowPolicy,
};
pub use faulty::{FaultStats, FaultyTransport, TransportFaultProfile};
pub use frame::{encode_frame, parse_command, Command, CommandAction, FrameError};
pub use transport::{
    memory_pair, read_framed, MemoryEndpoint, MemoryTransport, TcpTransport, Transport,
    TransportError, MAX_FRAME_LEN,
};
