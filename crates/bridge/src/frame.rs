//! Topic mapping, egress frame encoding, and ingress command parsing.
//!
//! **Egress.** Every trace record maps onto a stable topic
//! `iobt/<mission>/<node>/<kind>` (node `-` when the event has no
//! primary node) and is encoded as one JSON line with fixed key order:
//! `topic` first, then the record's own deterministic JSONL encoding
//! (`seq`, `t_us`, `sub`, `kind`, payload fields). Two same-seed runs
//! therefore produce byte-identical frame streams.
//!
//! **Ingress.** Tasking commands arrive as flat JSON
//! `{"src":S,"seq":N,"cmd":"assign","node":ID}`. `(src, seq)` is the
//! idempotency key: the bridge applies each `(src, seq)` at most once
//! no matter how often the frame is duplicated or replayed. The parser
//! is hand-rolled, allocation-light, and total: every byte flip or
//! truncation of a valid frame yields a typed [`FrameError`], never a
//! panic (fuzzed in `tests/bridge.rs`).

use std::fmt;

use iobt_obs::{push_u64, TraceRecord};

/// Appends the topic for a record: `iobt/<mission>/<node>/<kind>`,
/// with `-` standing in for events that have no primary node (mission
/// milestones, allocation epochs, bridge self-events). Matches the
/// derivation `iobt-trace --topics` applies to raw trace files.
fn push_topic(out: &mut String, mission: u64, record: &TraceRecord) {
    out.push_str("iobt/");
    push_u64(out, mission);
    match record.event.primary_node() {
        Some(node) => {
            out.push('/');
            push_u64(out, node);
            out.push('/');
        }
        None => out.push_str("/-/"),
    }
    out.push_str(record.event.kind());
}

/// Encodes one record as an egress frame: `"topic"` as the first key,
/// then the record's own deterministic JSON line, written into one
/// buffer.
pub fn encode_frame(mission: u64, record: &TraceRecord) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"topic\":\"");
    push_topic(&mut out, mission, record);
    out.push_str("\",");
    record.encode_body(&mut out);
    out
}

/// Why an ingress frame was rejected. Every variant is a rejection the
/// bridge counts and survives — a hostile or corrupt peer can never
/// panic the edge daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is not valid UTF-8.
    NotUtf8,
    /// The frame is not a flat JSON object of the expected shape.
    Malformed(&'static str),
    /// The `cmd` value is not one the bridge understands.
    UnknownCommand,
    /// A required field is missing.
    MissingField(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::NotUtf8 => write!(f, "frame is not valid UTF-8"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::UnknownCommand => write!(f, "unknown command"),
            FrameError::MissingField(name) => write!(f, "missing field: {name}"),
        }
    }
}

/// A parsed, validated tasking command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// Command source (one external controller = one `src` id).
    pub src: u64,
    /// Per-source sequence number; the idempotency key with `src`.
    pub seq: u64,
    /// What to do.
    pub action: CommandAction,
}

/// The action a command requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandAction {
    /// Queue a task assignment for `node` on the mission's task board.
    Assign {
        /// Target node id.
        node: u64,
    },
}

/// One scanned key/value: flat JSON allows only unsigned integers and
/// plain (escape-free) strings here.
enum Scalar<'a> {
    U64(u64),
    Str(&'a str),
}

/// Parses one ingress frame. Total over arbitrary bytes: returns a
/// typed [`FrameError`] for anything that is not exactly a flat JSON
/// command object.
pub fn parse_command(frame: &[u8]) -> Result<Command, FrameError> {
    let text = std::str::from_utf8(frame).map_err(|_| FrameError::NotUtf8)?;
    let mut src = None;
    let mut seq = None;
    let mut cmd = None;
    let mut node = None;

    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .ok_or(FrameError::Malformed("missing opening brace"))?;
    let body = body
        .strip_suffix('}')
        .ok_or(FrameError::Malformed("missing closing brace"))?;

    let mut rest = body.trim_start();
    let mut first = true;
    while !rest.is_empty() {
        if !first {
            rest = rest
                .strip_prefix(',')
                .ok_or(FrameError::Malformed("expected comma between fields"))?
                .trim_start();
        }
        first = false;

        let (key, after_key) = scan_string(rest)?;
        let after_colon = after_key
            .trim_start()
            .strip_prefix(':')
            .ok_or(FrameError::Malformed("expected colon after key"))?
            .trim_start();
        let (value, after_value) = scan_scalar(after_colon)?;
        match (key, value) {
            ("src", Scalar::U64(v)) => src = Some(v),
            ("seq", Scalar::U64(v)) => seq = Some(v),
            ("node", Scalar::U64(v)) => node = Some(v),
            ("cmd", Scalar::Str(s)) => cmd = Some(s),
            ("src" | "seq" | "node", Scalar::Str(_)) => {
                return Err(FrameError::Malformed("expected integer value"));
            }
            ("cmd", Scalar::U64(_)) => {
                return Err(FrameError::Malformed("expected string value for cmd"));
            }
            // Unknown keys are tolerated (forward compatibility).
            _ => {}
        }
        rest = after_value.trim_start();
    }

    let src = src.ok_or(FrameError::MissingField("src"))?;
    let seq = seq.ok_or(FrameError::MissingField("seq"))?;
    let action = match cmd.ok_or(FrameError::MissingField("cmd"))? {
        "assign" => CommandAction::Assign {
            node: node.ok_or(FrameError::MissingField("node"))?,
        },
        _ => return Err(FrameError::UnknownCommand),
    };
    Ok(Command { src, seq, action })
}

/// Scans a leading `"..."` string (no escapes allowed — command frames
/// never need them, and rejecting them keeps the parser total).
fn scan_string(s: &str) -> Result<(&str, &str), FrameError> {
    let inner = s
        .strip_prefix('"')
        .ok_or(FrameError::Malformed("expected string"))?;
    let end = inner
        .find(['"', '\\'])
        .ok_or(FrameError::Malformed("unterminated string"))?;
    if inner.as_bytes().get(end) == Some(&b'\\') {
        return Err(FrameError::Malformed("escapes not allowed"));
    }
    Ok((&inner[..end], &inner[end + 1..]))
}

/// Scans a leading scalar: unsigned integer or plain string.
fn scan_scalar(s: &str) -> Result<(Scalar<'_>, &str), FrameError> {
    if s.starts_with('"') {
        let (text, rest) = scan_string(s)?;
        return Ok((Scalar::Str(text), rest));
    }
    let digits_end = s
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map_or(s.len(), |(i, _)| i);
    if digits_end == 0 {
        return Err(FrameError::Malformed("expected number or string"));
    }
    let v: u64 = s[..digits_end]
        .parse()
        .map_err(|_| FrameError::Malformed("integer out of range"))?;
    Ok((Scalar::U64(v), &s[digits_end..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_obs::TraceEvent;

    fn rec(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            t_us: seq * 5,
            seq,
            event,
        }
    }

    #[test]
    fn topic_uses_primary_node_or_dash() {
        let with_node = rec(1, TraceEvent::MsgSent { from: 9, to: 2 });
        assert!(encode_frame(3, &with_node).starts_with("{\"topic\":\"iobt/3/9/msg_sent\","));
        let no_node = rec(2, TraceEvent::BridgeConnect { attempt: 1 });
        assert!(encode_frame(3, &no_node).starts_with("{\"topic\":\"iobt/3/-/bridge_connect\","));
    }

    #[test]
    fn frame_splices_topic_first_and_stays_one_line() {
        let r = rec(4, TraceEvent::MsgSent { from: 1, to: 2 });
        let frame = encode_frame(7, &r);
        assert!(frame.starts_with("{\"topic\":\"iobt/7/1/msg_sent\",\"seq\":4,"));
        assert_eq!(frame.lines().count(), 1);
    }

    #[test]
    fn command_round_trips() {
        let cmd = Command {
            src: 5,
            seq: 11,
            action: CommandAction::Assign { node: 42 },
        };
        let encoded = b"{\"src\":5,\"seq\":11,\"cmd\":\"assign\",\"node\":42}";
        assert_eq!(parse_command(encoded), Ok(cmd));
    }

    #[test]
    fn parser_rejects_garbage_with_typed_errors() {
        assert_eq!(parse_command(&[0xFF, 0xFE]), Err(FrameError::NotUtf8));
        assert_eq!(
            parse_command(b"not json"),
            Err(FrameError::Malformed("missing opening brace"))
        );
        assert_eq!(
            parse_command(b"{\"src\":1,\"seq\":2,\"cmd\":\"detonate\",\"node\":3}"),
            Err(FrameError::UnknownCommand)
        );
        assert_eq!(
            parse_command(b"{\"src\":1,\"cmd\":\"assign\",\"node\":3}"),
            Err(FrameError::MissingField("seq"))
        );
        assert_eq!(
            parse_command(b"{\"src\":99999999999999999999999,\"seq\":1,\"cmd\":\"assign\",\"node\":3}"),
            Err(FrameError::Malformed("integer out of range"))
        );
    }

    #[test]
    fn parser_tolerates_unknown_keys_and_whitespace() {
        let cmd = parse_command(
            b"{ \"src\" : 1 , \"seq\" : 2 , \"cmd\" : \"assign\" , \"node\" : 3 , \"extra\" : \"x\" }",
        )
        .expect("parse");
        assert_eq!(cmd.src, 1);
        assert_eq!(cmd.seq, 2);
        assert_eq!(cmd.action, CommandAction::Assign { node: 3 });
    }
}
