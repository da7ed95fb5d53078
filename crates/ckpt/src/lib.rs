//! Crash-safe mission checkpointing.
//!
//! The paper's IoBT vision demands missions that "survive substantial
//! failures and disconnections" — including failures of the *runtime
//! host* itself. This crate provides the storage half of that story:
//!
//! * [`codec`] — a tiny fixed-layout binary codec ([`Enc`]/[`Dec`])
//!   with exact `f64` bit round-tripping, so restored state is
//!   bit-identical to saved state (a prerequisite for deterministic
//!   resume), and the [`Wire`] trait through which each persisted type
//!   states its layout once.
//! * [`envelope`] — the one durable file envelope ([`seal`]/[`open`]:
//!   magic, format version, header words, the payload, and a trailing
//!   CRC-32 over everything before it) and the checkpoint format built
//!   on it. Files are written temp-then-rename ([`write_atomic`]) so a
//!   crash mid-write never leaves a truncated file under the final
//!   name. The fleet manifest is the same envelope under another magic.
//! * [`store`] — a directory of numbered files ([`NumberedFiles`]) with
//!   a newest-good scan, and the per-window [`CheckpointStore`] on top:
//!   a torn or bit-flipped checkpoint is detected, reported, and
//!   skipped in favour of the previous good one.
//!
//! Everything in this crate is pure bytes + `std::fs`; the state that
//! goes *into* a checkpoint is assembled by `iobt-netsim` and
//! `iobt-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod codec;
pub mod envelope;
pub mod store;

pub use codec::{Dec, DecodeError, Enc, Wire};
pub use envelope::{
    crc32, decode_checkpoint, encode_checkpoint, open, seal, write_atomic, write_checkpoint_atomic,
    CheckpointHeader, CkptError, FORMAT_VERSION, MAGIC,
};
pub use store::{CheckpointStore, LatestGood, NumberedFiles};
