//! `iobt-trace` — filter and roll up a JSONL trace produced by the
//! `iobt-obs` JSONL sink.
//!
//! ```text
//! iobt-trace [FILE|-] [--sub NAME] [--kind NAME] [--node ID]
//!            [--summary] [--per-node] [--per-window WIDTH_US]
//!            [--topics [--mission ID]]
//! ```
//!
//! With no rollup flag the matching lines are echoed verbatim (a trace
//! `grep`). `--summary` prints per-subsystem/kind counts and the time
//! span; `--per-node` counts events touching each node id;
//! `--per-window` buckets events into fixed sim-time windows; and
//! `--topics` rolls records up by bridge topic
//! (`iobt/<mission>/<node>/<kind>`) — frames captured off the wire use
//! their embedded `topic` key, raw trace lines derive one
//! (`--mission` sets the mission segment, default 0).

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::process::ExitCode;

use iobt_obs::TraceEvent;

/// A value in one flat trace record.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

impl Value {
    fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"k":v,...}` — exactly the shape the
/// JSONL sink emits: no nesting, no arrays). Returns `None` on any
/// deviation, which the caller counts as a malformed line.
fn parse_flat_object(line: &str) -> Option<BTreeMap<String, Value>> {
    let mut chars = line.trim().char_indices().peekable();
    let s = line.trim();
    let mut out = BTreeMap::new();
    match chars.next() {
        Some((_, '{')) => {}
        _ => return None,
    }
    loop {
        match chars.peek().copied() {
            Some((_, '}')) => {
                chars.next();
                break;
            }
            Some((_, ',')) => {
                chars.next();
            }
            Some((_, '"')) => {}
            _ => return None,
        }
        // Key.
        let key = parse_string(&mut chars)?;
        match chars.next() {
            Some((_, ':')) => {}
            _ => return None,
        }
        // Value.
        let value = match chars.peek().copied() {
            Some((_, '"')) => Value::Str(parse_string(&mut chars)?),
            Some((start, c)) if c == 't' || c == 'f' || c == 'n' => {
                let rest = &s[start..];
                if rest.starts_with("true") {
                    advance(&mut chars, 4);
                    Value::Bool(true)
                } else if rest.starts_with("false") {
                    advance(&mut chars, 5);
                    Value::Bool(false)
                } else if rest.starts_with("null") {
                    advance(&mut chars, 4);
                    Value::Null
                } else {
                    return None;
                }
            }
            Some((start, c)) if c == '-' || c.is_ascii_digit() => {
                let mut end = start;
                while let Some((i, c)) = chars.peek().copied() {
                    if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit()
                    {
                        end = i + c.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                Value::Num(s.get(start..end)?.parse().ok()?)
            }
            _ => return None,
        };
        out.insert(key, value);
    }
    // Trailing garbage after the closing brace is malformed.
    if chars.next().is_some() {
        return None;
    }
    Some(out)
}

fn advance(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>, n: usize) {
    for _ in 0..n {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) -> Option<String> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return None,
    }
    let mut out = String::new();
    loop {
        let (_, c) = chars.next()?;
        match c {
            '"' => return Some(out),
            '\\' => {
                let (_, esc) = chars.next()?;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars.next()?;
                            code = code * 16 + h.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                }
            }
            c => out.push(c),
        }
    }
}

/// The node ids a record carries, primary first: the values under the
/// keys its `kind`'s schema row lists as node ids. A kind this build
/// does not know has none, like a kind about the run as a whole.
fn node_ids(rec: &BTreeMap<String, Value>) -> impl Iterator<Item = u64> + '_ {
    let kind = rec.get("kind").and_then(Value::as_str);
    TraceEvent::SCHEMA
        .iter()
        .find(|row| Some(row.kind) == kind)
        .map_or(&[][..], |row| row.node_keys)
        .iter()
        .filter_map(|key| rec.get(*key).and_then(Value::as_u64))
}

#[derive(Debug, Default)]
struct Filters {
    sub: Option<String>,
    kind: Option<String>,
    node: Option<u64>,
}

impl Filters {
    fn matches(&self, rec: &BTreeMap<String, Value>) -> bool {
        if let Some(want) = &self.sub {
            if rec.get("sub").and_then(Value::as_str) != Some(want) {
                return false;
            }
        }
        if let Some(want) = &self.kind {
            if rec.get("kind").and_then(Value::as_str) != Some(want) {
                return false;
            }
        }
        if let Some(want) = self.node {
            if !node_ids(rec).any(|id| id == want) {
                return false;
            }
        }
        true
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Echo,
    Summary,
    PerNode,
    PerWindow(u64),
    Topics,
}

fn usage() -> String {
    "usage: iobt-trace [FILE|-] [--sub NAME] [--kind NAME] [--node ID] \
     [--summary] [--per-node] [--per-window WIDTH_US] [--topics [--mission ID]]"
        .to_owned()
}

struct Options {
    input: Option<String>,
    filters: Filters,
    mode: Mode,
    /// Mission id used when deriving topics for raw trace lines.
    mission: u64,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut input = None;
    let mut filters = Filters::default();
    let mut mode = Mode::Echo;
    let mut mission = 0u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--summary" => mode = Mode::Summary,
            "--per-node" => mode = Mode::PerNode,
            "--topics" => mode = Mode::Topics,
            "--mission" => {
                let m = it
                    .next()
                    .ok_or_else(|| format!("--mission needs ID\n{}", usage()))?;
                mission = m.parse().map_err(|_| {
                    format!("--mission ID must be a non-negative integer, got {m:?}")
                })?;
            }
            "--per-window" => {
                let w = it
                    .next()
                    .ok_or_else(|| format!("--per-window needs WIDTH_US\n{}", usage()))?;
                let width: u64 = w
                    .parse()
                    .map_err(|_| format!("--per-window WIDTH_US must be an integer, got {w:?}"))?;
                if width == 0 {
                    return Err("--per-window WIDTH_US must be positive".to_owned());
                }
                mode = Mode::PerWindow(width);
            }
            "--sub" => {
                filters.sub = Some(
                    it.next()
                        .ok_or_else(|| format!("--sub needs NAME\n{}", usage()))?
                        .clone(),
                );
            }
            "--kind" => {
                filters.kind = Some(
                    it.next()
                        .ok_or_else(|| format!("--kind needs NAME\n{}", usage()))?
                        .clone(),
                );
            }
            "--node" => {
                let n = it
                    .next()
                    .ok_or_else(|| format!("--node needs ID\n{}", usage()))?;
                filters.node =
                    Some(n.parse().map_err(|_| {
                        format!("--node ID must be a non-negative integer, got {n:?}")
                    })?);
            }
            "--help" | "-h" => return Err(usage()),
            other if input.is_none() && !other.starts_with("--") => {
                input = Some(other.to_owned());
            }
            other => return Err(format!("unrecognized argument {other:?}\n{}", usage())),
        }
    }
    Ok(Options {
        input,
        filters,
        mode,
        mission,
    })
}

fn read_input(input: Option<&str>) -> io::Result<String> {
    match input {
        None | Some("-") => {
            let mut buf = String::new();
            io::stdin().lock().read_to_string(&mut buf)?;
            Ok(buf)
        }
        Some(path) => std::fs::read_to_string(path),
    }
}

fn run(opts: &Options, text: &str) -> (String, u64) {
    let mut malformed = 0u64;
    let mut kept: Vec<(String, BTreeMap<String, Value>)> = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_flat_object(line) {
            Some(rec) => {
                if opts.filters.matches(&rec) {
                    kept.push((line.to_owned(), rec));
                }
            }
            None => malformed += 1,
        }
    }
    let mut out = String::new();
    match opts.mode {
        Mode::Echo => {
            for (line, _) in &kept {
                out.push_str(line);
                out.push('\n');
            }
        }
        Mode::Summary => render_summary(&mut out, &kept),
        Mode::PerNode => render_per_node(&mut out, &kept),
        Mode::PerWindow(width) => render_per_window(&mut out, &kept, width),
        Mode::Topics => render_topics(&mut out, &kept, opts.mission),
    }
    (out, malformed)
}

/// The topic one record maps onto: captured bridge frames carry it
/// verbatim in a `topic` key; raw trace lines derive
/// `iobt/<mission>/<node>/<kind>` exactly the way the bridge does
/// (the kind's primary node, `-` when nodeless).
fn record_topic(rec: &BTreeMap<String, Value>, mission: u64) -> String {
    if let Some(topic) = rec.get("topic").and_then(Value::as_str) {
        return topic.to_owned();
    }
    let kind = rec.get("kind").and_then(Value::as_str).unwrap_or("?");
    match node_ids(rec).next() {
        Some(n) => format!("iobt/{mission}/{n}/{kind}"),
        None => format!("iobt/{mission}/-/{kind}"),
    }
}

fn render_topics(out: &mut String, kept: &[(String, BTreeMap<String, Value>)], mission: u64) {
    use std::fmt::Write as _;
    let mut by_topic: BTreeMap<String, u64> = BTreeMap::new();
    for (_, rec) in kept {
        *by_topic.entry(record_topic(rec, mission)).or_insert(0) += 1;
    }
    let _ = writeln!(out, "topics: {}", by_topic.len());
    for (topic, n) in &by_topic {
        let _ = writeln!(out, "  {topic:<40} {n}");
    }
}

fn render_summary(out: &mut String, kept: &[(String, BTreeMap<String, Value>)]) {
    use std::fmt::Write as _;
    let mut by_kind: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    for (_, rec) in kept {
        let sub = rec
            .get("sub")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned();
        let kind = rec
            .get("kind")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned();
        *by_kind.entry((sub, kind)).or_insert(0) += 1;
        if let Some(t) = rec.get("t_us").and_then(Value::as_u64) {
            t_min = t_min.min(t);
            t_max = t_max.max(t);
        }
    }
    let _ = writeln!(out, "records: {}", kept.len());
    if !kept.is_empty() && t_min != u64::MAX {
        let _ = writeln!(
            out,
            "span: t_us {t_min}..{t_max} ({:.3} s)",
            (t_max - t_min) as f64 / 1e6
        );
    }
    for ((sub, kind), n) in &by_kind {
        let _ = writeln!(out, "  {sub:<10} {kind:<20} {n}");
    }
}

fn render_per_node(out: &mut String, kept: &[(String, BTreeMap<String, Value>)]) {
    use std::fmt::Write as _;
    let mut by_node: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, rec) in kept {
        for id in node_ids(rec) {
            *by_node.entry(id).or_insert(0) += 1;
        }
    }
    let _ = writeln!(out, "nodes: {}", by_node.len());
    for (node, n) in &by_node {
        let _ = writeln!(out, "  n{node:<10} {n}");
    }
}

fn render_per_window(out: &mut String, kept: &[(String, BTreeMap<String, Value>)], width_us: u64) {
    use std::fmt::Write as _;
    let mut by_window: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, rec) in kept {
        if let Some(t) = rec.get("t_us").and_then(Value::as_u64) {
            *by_window.entry(t / width_us).or_insert(0) += 1;
        }
    }
    let _ = writeln!(out, "windows ({width_us} us each): {}", by_window.len());
    for (w, n) in &by_window {
        let _ = writeln!(out, "  [{}..{}) {n}", w * width_us, (w + 1) * width_us);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let text = match read_input(opts.input.as_deref()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "iobt-trace: cannot read {}: {e}",
                opts.input.as_deref().unwrap_or("stdin")
            );
            return ExitCode::from(2);
        }
    };
    let (out, malformed) = run(&opts, &text);
    print!("{out}");
    if malformed > 0 {
        eprintln!("iobt-trace: skipped {malformed} malformed line(s)");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_obs::{DropCause, TraceRecord};

    const SAMPLE: &str = concat!(
        "{\"seq\":0,\"t_us\":0,\"sub\":\"core\",\"kind\":\"recruitment\",\"candidates\":5,\"recruited\":3}\n",
        "{\"seq\":1,\"t_us\":1000,\"sub\":\"netsim\",\"kind\":\"msg_sent\",\"from\":3,\"to\":9}\n",
        "{\"seq\":2,\"t_us\":2500,\"sub\":\"netsim\",\"kind\":\"msg_dropped\",\"from\":3,\"to\":9,\"cause\":\"no_route\"}\n",
        "not json\n",
    );

    fn opts(mode: Mode, filters: Filters) -> Options {
        Options {
            input: None,
            filters,
            mode,
            mission: 0,
        }
    }

    #[test]
    fn parses_and_counts_malformed() {
        let (out, malformed) = run(&opts(Mode::Echo, Filters::default()), SAMPLE);
        assert_eq!(malformed, 1);
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn filters_by_sub_kind_and_node() {
        let f = Filters {
            sub: Some("netsim".to_owned()),
            ..Filters::default()
        };
        let (out, _) = run(&opts(Mode::Echo, f), SAMPLE);
        assert_eq!(out.lines().count(), 2);

        let f = Filters {
            kind: Some("msg_dropped".to_owned()),
            ..Filters::default()
        };
        let (out, _) = run(&opts(Mode::Echo, f), SAMPLE);
        assert_eq!(out.lines().count(), 1);

        let f = Filters {
            node: Some(9),
            ..Filters::default()
        };
        let (out, _) = run(&opts(Mode::Echo, f), SAMPLE);
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn summary_rolls_up_by_sub_and_kind() {
        let (out, _) = run(&opts(Mode::Summary, Filters::default()), SAMPLE);
        assert!(out.contains("records: 3"));
        assert!(out.contains("msg_sent"));
        assert!(out.contains("recruitment"));
        assert!(out.contains("span: t_us 0..2500"));
    }

    #[test]
    fn per_window_buckets_by_time() {
        let (out, _) = run(&opts(Mode::PerWindow(1000), Filters::default()), SAMPLE);
        assert!(out.contains("windows (1000 us each): 3"));
    }

    #[test]
    fn parse_args_accepts_combined_flags() {
        let args: Vec<String> = ["trace.jsonl", "--sub", "netsim", "--per-window", "500"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let o = parse_args(&args).map_err(|e| e.to_string());
        match o {
            Ok(o) => {
                assert_eq!(o.input.as_deref(), Some("trace.jsonl"));
                assert_eq!(o.mode, Mode::PerWindow(500));
                assert_eq!(o.filters.sub.as_deref(), Some("netsim"));
            }
            Err(e) => {
                panic!("parse failed: {e}");
            }
        }
    }

    #[test]
    fn topics_rollup_derives_and_honors_embedded_topic() {
        let mixed = concat!(
            "{\"seq\":0,\"t_us\":0,\"sub\":\"netsim\",\"kind\":\"msg_sent\",\"from\":3,\"to\":9}\n",
            "{\"seq\":1,\"t_us\":5,\"sub\":\"netsim\",\"kind\":\"msg_sent\",\"from\":3,\"to\":9}\n",
            "{\"topic\":\"iobt/7/3/msg_sent\",\"seq\":2,\"t_us\":9,\"sub\":\"netsim\",\"kind\":\"msg_sent\",\"from\":3,\"to\":9}\n",
            "{\"seq\":3,\"t_us\":12,\"sub\":\"core\",\"kind\":\"window_closed\",\"window\":0}\n",
        );
        let mut o = opts(Mode::Topics, Filters::default());
        o.mission = 4;
        let (out, malformed) = run(&o, mixed);
        assert_eq!(malformed, 0);
        assert!(out.contains("topics: 3"), "got: {out}");
        assert!(out.contains("iobt/4/3/msg_sent"));
        assert!(out.contains("iobt/7/3/msg_sent"));
        assert!(out.contains("iobt/4/-/window_closed"));
    }

    #[test]
    fn node_filter_follows_the_schema_not_the_key_names() {
        let two = concat!(
            "{\"seq\":0,\"t_us\":0,\"sub\":\"netsim\",\"kind\":\"msg_tampered\",\"from\":1,\"to\":2,\"relay\":7}\n",
            "{\"seq\":1,\"t_us\":1,\"sub\":\"adapt\",\"kind\":\"actuation\",\"requester\":3,\"actuator\":7,\"zone\":5,\"decision\":\"approved\"}\n",
        );
        let f = Filters {
            node: Some(7),
            ..Filters::default()
        };
        // `relay` is a node id; `actuator` is an `ActuatorKind` index.
        let (out, _) = run(&opts(Mode::Echo, f), two);
        assert_eq!(out.lines().count(), 1, "got: {out}");
        assert!(out.contains("msg_tampered"));
        let (out, _) = run(&opts(Mode::PerNode, Filters::default()), two);
        assert!(out.contains("nodes: 4"), "got: {out}");
    }

    include!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/support/one_of_each.rs"));

    /// A raw trace line of every kind derives the topic the bridge
    /// publishes it under (`iobt_bridge::topic`, which this crate sits
    /// below: `iobt/<mission>/<primary node or ->/<kind>`).
    #[test]
    fn derived_topic_is_the_bridges_for_every_kind() {
        for (i, event) in one_of_each().into_iter().enumerate() {
            let want = match event.primary_node() {
                Some(node) => format!("iobt/4/{node}/{}", event.kind()),
                None => format!("iobt/4/-/{}", event.kind()),
            };
            let line = TraceRecord { t_us: 9, seq: i as u64, event }.to_jsonl();
            let rec = parse_flat_object(&line).unwrap_or_else(|| panic!("parse {line}"));
            assert_eq!(record_topic(&rec, 4), want);
        }
    }

    #[test]
    fn sub_filter_selects_bridge_events() {
        let mixed = concat!(
            "{\"seq\":0,\"t_us\":0,\"sub\":\"bridge\",\"kind\":\"bridge_retry\",\"attempt\":1,\"backoff_ticks\":2}\n",
            "{\"seq\":1,\"t_us\":1,\"sub\":\"netsim\",\"kind\":\"msg_sent\",\"from\":3,\"to\":9}\n",
        );
        let f = Filters {
            sub: Some("bridge".to_owned()),
            ..Filters::default()
        };
        let (out, _) = run(&opts(Mode::Echo, f), mixed);
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("bridge_retry"));
    }

    #[test]
    fn parse_flat_object_rejects_nesting_and_garbage() {
        assert!(parse_flat_object("{\"a\":{\"b\":1}}").is_none());
        assert!(parse_flat_object("{\"a\":1} extra").is_none());
        assert!(parse_flat_object("[1,2]").is_none());
        let ok = parse_flat_object("{\"a\":-1.5e3,\"b\":true,\"c\":null,\"d\":\"x\\u0041\"}");
        match ok {
            Some(m) => {
                assert_eq!(m.get("a"), Some(&Value::Num(-1500.0)));
                assert_eq!(m.get("d"), Some(&Value::Str("xA".to_owned())));
            }
            None => panic!("expected parse"),
        }
    }
}
