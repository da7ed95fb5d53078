//! Pluggable bridge transports.
//!
//! The bridge never talks to a socket directly; it drives a
//! [`Transport`], which is any byte-frame channel with explicit
//! connection state. Two implementations ship in-tree:
//!
//! * [`MemoryTransport`] — an in-process pair used by every test and by
//!   the chaos harness (wrapped in `FaultyTransport`). The peer end is
//!   a [`MemoryEndpoint`] the test drives directly.
//! * [`TcpTransport`] — a length-framed (`u32` little-endian prefix)
//!   TCP client for real consumers. Reads are non-blocking so the
//!   bridge's pump loop never stalls the mission thread; a batch of
//!   frames goes out in one `write`.
//!
//! Every operation returns a typed [`TransportError`]; transports never
//! panic on peer misbehaviour.
//!
//! A transport implements the four required methods. The bridge's
//! egress goes through the provided [`Transport::send_batch`], whose
//! default body is one [`Transport::send`] per frame: override it only
//! when a batch is cheaper than its frames.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::rc::Rc;

/// Hard upper bound on a single frame (1 MiB). A length prefix above
/// this is treated as a protocol violation, not an allocation request —
/// the guard that keeps a corrupt or hostile peer from OOMing the edge
/// daemon.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Framed bytes [`TcpTransport`] gathers before it writes them (64 KiB).
/// A constant, not a `BridgeConfig` field: the buffer holds at most this
/// plus one frame whatever `batch_per_tick` and `ring_capacity` say.
const TX_CHUNK: usize = 64 << 10;

/// Typed transport failure. The bridge's connection state machine keys
/// off these: `Busy` degrades (retry next tick, same connection),
/// `Disconnected` and `Refused` trigger the reconnect/backoff path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The connection is down (peer closed, send failed, link cut).
    Disconnected,
    /// The transport is temporarily unable to make progress; the same
    /// operation may succeed on a later tick without reconnecting.
    Busy,
    /// A connection attempt was rejected outright.
    Refused,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "transport disconnected"),
            TransportError::Busy => write!(f, "transport busy"),
            TransportError::Refused => write!(f, "connection refused"),
        }
    }
}

/// A byte-frame channel with explicit connection state.
///
/// Frame boundaries are preserved: one `send` on this side is one
/// `recv` on the peer (modulo injected faults). Implementations must
/// not block indefinitely in `recv` — return `Ok(None)` when no frame
/// is pending.
pub trait Transport {
    /// Establishes (or re-establishes) the connection.
    fn connect(&mut self) -> Result<(), TransportError>;

    /// Sends one frame. On error the frame is NOT considered delivered;
    /// the caller decides whether to retry (at-least-once egress).
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Sends `frames` in order until one fails. Returns how many were
    /// accepted — always a prefix of the batch, each frame under
    /// [`send`](Transport::send)'s meaning of delivered — and what
    /// stopped it; the frame that failed and everything behind it were
    /// not sent and stay with the caller.
    ///
    /// The default is one `send` per frame, so a transport (or a
    /// decorator around one) that does not override it sees the calls it
    /// would see from a caller looping over `send` itself.
    fn send_batch(
        &mut self,
        frames: &mut dyn Iterator<Item = &[u8]>,
    ) -> (usize, Result<(), TransportError>) {
        let mut sent = 0;
        for frame in frames {
            if let Err(e) = self.send(frame) {
                return (sent, Err(e));
            }
            sent += 1;
        }
        (sent, Ok(()))
    }

    /// Polls for one inbound frame. `Ok(None)` means no frame pending.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError>;

    /// Tears the connection down. Idempotent.
    fn close(&mut self);
}

// ---------------------------------------------------------------------------
// In-memory pair
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemoryLink {
    /// Frames travelling bridge → consumer.
    egress: VecDeque<Vec<u8>>,
    /// Frames travelling consumer → bridge (tasking commands).
    ingress: VecDeque<Vec<u8>>,
    connected: bool,
    /// When true, the next (and every subsequent) connect is refused
    /// until the test lifts it.
    refuse_connect: bool,
}

/// Bridge-side end of an in-memory transport pair.
#[derive(Debug)]
pub struct MemoryTransport(Rc<RefCell<MemoryLink>>);

/// Consumer-side end of an in-memory transport pair: what the "cloud"
/// sees. Tests read egress frames, push tasking commands, and cut the
/// link from here.
#[derive(Debug, Clone)]
pub struct MemoryEndpoint(Rc<RefCell<MemoryLink>>);

/// Creates a connected-in-potential in-memory pair. The bridge side
/// still has to call [`Transport::connect`] before frames flow.
pub fn memory_pair() -> (MemoryTransport, MemoryEndpoint) {
    let link = Rc::new(RefCell::new(MemoryLink::default()));
    (MemoryTransport(Rc::clone(&link)), MemoryEndpoint(link))
}

impl Transport for MemoryTransport {
    fn connect(&mut self) -> Result<(), TransportError> {
        let mut link = self.0.borrow_mut();
        if link.refuse_connect {
            return Err(TransportError::Refused);
        }
        link.connected = true;
        Ok(())
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        let mut link = self.0.borrow_mut();
        if !link.connected {
            return Err(TransportError::Disconnected);
        }
        link.egress.push_back(frame.to_vec());
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let mut link = self.0.borrow_mut();
        if !link.connected {
            return Err(TransportError::Disconnected);
        }
        Ok(link.ingress.pop_front())
    }

    fn close(&mut self) {
        self.0.borrow_mut().connected = false;
    }
}

impl MemoryEndpoint {
    /// Drains every egress frame the bridge has delivered so far.
    pub fn take_frames(&self) -> Vec<Vec<u8>> {
        self.0.borrow_mut().egress.drain(..).collect()
    }

    /// Queues a tasking command for the bridge's next ingress poll.
    pub fn push_command(&self, frame: &[u8]) {
        self.0.borrow_mut().ingress.push_back(frame.to_vec());
    }

    /// True while the bridge side holds an open connection.
    pub fn is_connected(&self) -> bool {
        self.0.borrow().connected
    }
}

// ---------------------------------------------------------------------------
// Length-framed TCP
// ---------------------------------------------------------------------------

/// Appends one frame as the TCP wire carries it: `u32` little-endian
/// payload length, then the payload.
fn push_framed(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The payload length the frame at the head of `buf` declares, once its
/// four prefix bytes are there.
fn declared_len(buf: &[u8]) -> Option<usize> {
    let prefix: [u8; 4] = buf.get(..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(prefix) as usize)
}

/// Lays `frames` out length-prefixed in `tx` and writes them to `w`: one
/// `write` when the batch ends, and one each time `tx` passes
/// [`TX_CHUNK`] before it does. A frame counts as sent once its last
/// byte has been written. `Busy` is reported only for a `WouldBlock`
/// that stopped the stream on a frame boundary; a stream stopped inside a
/// frame cannot be used again, so that is `Disconnected` whatever the
/// error was.
fn write_frames<W: Write>(
    w: &mut W,
    tx: &mut Vec<u8>,
    frames: &mut dyn Iterator<Item = &[u8]>,
) -> (usize, Result<(), TransportError>) {
    let mut sent = 0;
    loop {
        tx.clear();
        let mut laid = 0;
        while tx.len() < TX_CHUNK {
            let Some(frame) = frames.next() else { break };
            push_framed(tx, frame);
            laid += 1;
        }
        if laid == 0 {
            return (sent, Ok(()));
        }
        let mut written = 0;
        while written < tx.len() {
            let kind = match w.write(&tx[written..]) {
                Ok(0) => io::ErrorKind::WriteZero,
                Ok(n) => {
                    written += n;
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => e.kind(),
            };
            let (whole, on_boundary) = frames_within(tx, written);
            let stalled = on_boundary && kind == io::ErrorKind::WouldBlock;
            let error = if stalled {
                TransportError::Busy
            } else {
                TransportError::Disconnected
            };
            return (sent + whole, Err(error));
        }
        sent += laid;
    }
}

/// How many of the frames laid out in `tx` end at or before byte
/// `written`, and whether `written` falls between two frames.
fn frames_within(tx: &[u8], written: usize) -> (usize, bool) {
    let (mut whole, mut end) = (0, 0);
    while let Some(len) = declared_len(&tx[end..]) {
        let next = end + 4 + len;
        if next > written {
            break;
        }
        (whole, end) = (whole + 1, next);
    }
    (whole, end == written)
}

/// Blocking read of one length-framed frame from any reader — the
/// consumer-side helper (the bridge itself polls non-blocking).
/// Returns `Ok(None)` on clean EOF at a frame boundary; a length
/// prefix above [`MAX_FRAME_LEN`] is an `InvalidData` error.
pub fn read_framed<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME_LEN",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Length-framed TCP client transport.
///
/// Writes are blocking and a batch is one `write` (one per 64 KiB of
/// it); a write that stops inside a frame would desync the peer's
/// framing, so it closes the connection. Reads flip the socket to
/// non-blocking for the duration of the poll and accumulate partial
/// reads in an internal buffer, only surfacing complete frames — a slow
/// or torn sender can never hand the bridge half a frame.
#[derive(Debug)]
pub struct TcpTransport {
    addr: String,
    stream: Option<TcpStream>,
    /// Reassembly buffer for partially received frames.
    rx: Vec<u8>,
    /// Framed bytes of the batch being written; kept for its capacity.
    tx: Vec<u8>,
}

impl TcpTransport {
    /// Creates a transport that will dial `addr` (e.g. `"127.0.0.1:7070"`)
    /// on every [`Transport::connect`].
    pub fn new(addr: impl Into<String>) -> Self {
        TcpTransport {
            addr: addr.into(),
            stream: None,
            rx: Vec::new(),
            tx: Vec::new(),
        }
    }

    /// Drains whatever the socket has ready right now (it is already
    /// in non-blocking mode) and surfaces the first complete frame.
    fn poll_nonblocking(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let mut buf = [0u8; 4096];
        loop {
            let stream = self.stream.as_mut().ok_or(TransportError::Disconnected)?;
            match stream.read(&mut buf) {
                Ok(0) => {
                    self.close();
                    return Err(TransportError::Disconnected);
                }
                Ok(n) => {
                    self.rx.extend_from_slice(&buf[..n]);
                    if let Some(frame) = self.pop_frame()? {
                        return Ok(Some(frame));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close();
                    return Err(TransportError::Disconnected);
                }
            }
        }
    }

    /// Pops one complete frame out of the reassembly buffer, if any.
    fn pop_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let Some(len) = declared_len(&self.rx) else {
            return Ok(None);
        };
        if len > MAX_FRAME_LEN {
            // Protocol violation: resynchronising is hopeless, drop the
            // connection rather than trust the stream again.
            self.close();
            return Err(TransportError::Disconnected);
        }
        if self.rx.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.rx[4..4 + len].to_vec();
        self.rx.drain(..4 + len);
        Ok(Some(payload))
    }
}

impl Transport for TcpTransport {
    fn connect(&mut self) -> Result<(), TransportError> {
        self.close();
        let stream = TcpStream::connect(&self.addr).map_err(|e| match e.kind() {
            io::ErrorKind::ConnectionRefused => TransportError::Refused,
            _ => TransportError::Disconnected,
        })?;
        self.stream = Some(stream);
        self.rx.clear();
        Ok(())
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_batch(&mut std::iter::once(frame)).1
    }

    fn send_batch(
        &mut self,
        frames: &mut dyn Iterator<Item = &[u8]>,
    ) -> (usize, Result<(), TransportError>) {
        let Some(stream) = self.stream.as_mut() else {
            return (0, Err(TransportError::Disconnected));
        };
        let (sent, outcome) = write_frames(stream, &mut self.tx, frames);
        if outcome == Err(TransportError::Disconnected) {
            self.close();
        }
        (sent, outcome)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if self.stream.is_none() {
            return Err(TransportError::Disconnected);
        }
        if let Some(frame) = self.pop_frame()? {
            return Ok(Some(frame));
        }
        // Poll without blocking, then restore blocking mode so sends
        // keep their whole-frame write guarantee.
        if let Some(s) = self.stream.as_ref() {
            if s.set_nonblocking(true).is_err() {
                self.close();
                return Err(TransportError::Disconnected);
            }
        }
        let polled = self.poll_nonblocking();
        if let Some(s) = self.stream.as_ref() {
            if s.set_nonblocking(false).is_err() {
                self.close();
                return Err(TransportError::Disconnected);
            }
        }
        polled
    }

    fn close(&mut self) {
        self.stream = None;
        self.rx.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A writer that counts calls, takes at most `per_call` bytes in each,
    /// and fails with `fail.1` once `fail.0` bytes are in.
    struct FakeWriter {
        wire: Vec<u8>,
        calls: usize,
        per_call: usize,
        fail: Option<(usize, io::ErrorKind)>,
    }

    impl FakeWriter {
        fn new(per_call: usize, fail: Option<(usize, io::ErrorKind)>) -> Self {
            FakeWriter {
                wire: Vec::new(),
                calls: 0,
                per_call,
                fail,
            }
        }
    }

    impl Write for FakeWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let mut n = buf.len().min(self.per_call);
            if let Some((at, kind)) = self.fail {
                if self.wire.len() >= at {
                    return Err(kind.into());
                }
                n = n.min(at - self.wire.len());
            }
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn encode_framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        push_framed(&mut out, payload);
        out
    }

    impl MemoryEndpoint {
        /// Cuts the link: the bridge's next send/recv fails with
        /// `Disconnected` until it reconnects.
        fn drop_link(&self) {
            self.0.borrow_mut().connected = false;
        }

        /// When `refuse` is set, every subsequent connect attempt is
        /// rejected with `Refused` until lifted.
        pub(crate) fn refuse_connects(&self, refuse: bool) {
            self.0.borrow_mut().refuse_connect = refuse;
        }
    }

    fn write_all_frames(
        w: &mut FakeWriter,
        frames: &[Vec<u8>],
    ) -> (usize, Result<(), TransportError>) {
        write_frames(w, &mut Vec::new(), &mut frames.iter().map(Vec::as_slice))
    }

    fn wire_of(frames: &[Vec<u8>]) -> Vec<u8> {
        frames.iter().flat_map(|f| encode_framed(f)).collect()
    }

    #[test]
    fn a_batch_is_one_write_and_the_bytes_of_its_frames() {
        // 256 frames the size of the bridge's: what one pump hands over.
        let frames: Vec<Vec<u8>> = (0..256usize).map(|i| vec![i as u8; 120 + i % 30]).collect();
        let mut batched = FakeWriter::new(usize::MAX, None);
        assert_eq!(write_all_frames(&mut batched, &frames), (256, Ok(())));
        assert_eq!(batched.calls, 1);
        assert_eq!(batched.wire, wire_of(&frames));

        // The same frames one `send` at a time: the same bytes in 256 writes.
        let mut single = FakeWriter::new(usize::MAX, None);
        for frame in &frames {
            assert_eq!(
                write_all_frames(&mut single, std::slice::from_ref(frame)),
                (1, Ok(()))
            );
        }
        assert_eq!(single.calls, 256);
        assert_eq!(single.wire, batched.wire);

        // No frames, no write.
        let mut idle = FakeWriter::new(usize::MAX, None);
        assert_eq!(write_all_frames(&mut idle, &[]), (0, Ok(())));
        assert_eq!(idle.calls, 0);
    }

    #[test]
    fn a_long_batch_is_written_a_chunk_at_a_time_and_short_writes_continue() {
        // 1,000 frames of 135 + 4 bytes: 472 pass 64 KiB, so 472 + 472 + 56.
        let frames: Vec<Vec<u8>> = (0..1000usize).map(|i| vec![i as u8; 135]).collect();
        let mut w = FakeWriter::new(usize::MAX, None);
        let mut tx = Vec::new();
        let out = write_frames(&mut w, &mut tx, &mut frames.iter().map(Vec::as_slice));
        assert_eq!(out, (1000, Ok(())));
        assert_eq!(w.calls, 3);
        assert_eq!(w.wire, wire_of(&frames));
        assert!(
            tx.capacity() < 2 * TX_CHUNK,
            "the buffer is bounded by the chunk, not the batch"
        );

        // Seven bytes a call: every prefix and payload is split somewhere.
        let mut short = FakeWriter::new(7, None);
        assert_eq!(write_all_frames(&mut short, &frames[..40]), (40, Ok(())));
        assert_eq!(short.wire, wire_of(&frames[..40]));
        assert_eq!(short.calls, short.wire.len().div_ceil(7));
    }

    #[test]
    fn an_error_at_any_byte_keeps_the_count_of_whole_frames() {
        let frames = vec![b"first".to_vec(), Vec::new(), b"the third frame".to_vec()];
        let wire = wire_of(&frames);
        let ends = [9, 13, wire.len()];
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::BrokenPipe] {
            for k in 0..wire.len() {
                for per_call in [usize::MAX, 3] {
                    let mut w = FakeWriter::new(per_call, Some((k, kind)));
                    let (sent, outcome) = write_all_frames(&mut w, &frames);
                    let whole = ends.iter().filter(|&&end| end <= k).count();
                    assert_eq!(sent, whole, "{kind:?} at byte {k}");
                    // Only a stall between two frames leaves a stream
                    // that can carry the next one.
                    let on_boundary = k == 0 || ends.contains(&k);
                    let expected = if on_boundary && kind == io::ErrorKind::WouldBlock {
                        TransportError::Busy
                    } else {
                        TransportError::Disconnected
                    };
                    assert_eq!(outcome, Err(expected), "{kind:?} at byte {k}");
                    assert_eq!(w.wire, wire[..k]);
                }
            }
        }
        // A writer that accepts nothing is a dead one, not a spin.
        let mut full = FakeWriter::new(0, None);
        assert_eq!(
            write_all_frames(&mut full, &frames),
            (0, Err(TransportError::Disconnected))
        );
    }

    /// A listener on an ephemeral loopback port and a transport dialled
    /// into it. `connect` completes against the listen backlog, so one
    /// thread can hold both ends.
    fn tcp_pair() -> (TcpTransport, TcpStream, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let mut t = TcpTransport::new(addr.to_string());
        t.connect().expect("connect");
        let (peer, _) = listener.accept().expect("accept");
        (t, peer, listener)
    }

    /// Polls `recv` until it has a frame; `None` just means the bytes are
    /// still on their way.
    fn recv_frame(t: &mut TcpTransport) -> Vec<u8> {
        for _ in 0..10_000_000 {
            if let Some(frame) = t.recv().expect("recv") {
                return frame;
            }
            std::thread::yield_now();
        }
        panic!("no frame arrived");
    }

    #[test]
    fn tcp_batch_puts_each_frame_on_the_wire_in_order() {
        let (mut t, mut peer, _listener) = tcp_pair();
        let frames = vec![
            b"{\"topic\":\"iobt/7/3/msg_sent\"}\n".to_vec(),
            Vec::new(),
            vec![0xab; TX_CHUNK + 1000],
            b"x".to_vec(),
            vec![7; 300],
        ];
        let expected = wire_of(&frames);
        // The batch is larger than a socket buffer may be: read while it
        // is written.
        let wire = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut wire = vec![0u8; expected.len()];
                peer.read_exact(&mut wire).expect("read the batch");
                wire
            });
            let out = t.send_batch(&mut frames.iter().map(Vec::as_slice));
            assert_eq!(out, (frames.len(), Ok(())));
            t.send(b"one more").expect("send");
            reader.join().expect("reader thread")
        });
        assert_eq!(wire, expected);
        let mut cursor = io::Cursor::new(wire);
        for frame in &frames {
            assert_eq!(
                read_framed(&mut cursor).expect("framed").as_ref(),
                Some(frame)
            );
        }
        assert_eq!(read_framed(&mut cursor).expect("eof"), None);
        assert_eq!(
            read_framed(&mut peer).expect("framed"),
            Some(b"one more".to_vec())
        );

        t.close();
        assert_eq!(t.send(b"late"), Err(TransportError::Disconnected));
        let nothing = t.send_batch(&mut std::iter::empty());
        assert_eq!(nothing, (0, Err(TransportError::Disconnected)));
    }

    #[test]
    fn tcp_recv_reassembles_split_commands_and_refuses_oversized_ones() {
        let (mut t, mut peer, _listener) = tcp_pair();
        let first = encode_framed(b"{\"src\":1,\"seq\":1,\"cmd\":\"assign\",\"node\":9}");
        let second = encode_framed(b"{\"src\":1,\"seq\":2,\"cmd\":\"assign\",\"node\":4}");
        // Split the first inside its payload and the second inside its
        // length prefix.
        peer.write_all(&first[..20]).expect("write");
        assert_eq!(t.recv(), Ok(None));
        assert_eq!(t.recv(), Ok(None));
        peer.write_all(&first[20..]).expect("write");
        peer.write_all(&second[..2]).expect("write");
        assert_eq!(recv_frame(&mut t), first[4..]);
        assert_eq!(t.recv(), Ok(None));
        peer.write_all(&second[2..]).expect("write");
        assert_eq!(recv_frame(&mut t), second[4..]);
        assert_eq!(t.recv(), Ok(None));

        // A length no frame may have: the stream cannot be trusted again.
        let oversized = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        peer.write_all(&oversized).expect("write");
        let outcome = (0..10_000_000).find_map(|_| match t.recv() {
            Ok(None) => {
                std::thread::yield_now();
                None
            }
            other => Some(other),
        });
        assert_eq!(outcome, Some(Err(TransportError::Disconnected)));
        assert_eq!(
            t.send(b"x"),
            Err(TransportError::Disconnected),
            "the transport is closed"
        );
        assert_eq!(t.recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn memory_pair_round_trips_frames_in_order() {
        let (mut t, peer) = memory_pair();
        assert_eq!(t.send(b"early"), Err(TransportError::Disconnected));
        t.connect().expect("connect");
        t.send(b"a").expect("send a");
        t.send(b"b").expect("send b");
        assert_eq!(peer.take_frames(), vec![b"a".to_vec(), b"b".to_vec()]);
        peer.push_command(b"cmd");
        assert_eq!(t.recv().expect("recv"), Some(b"cmd".to_vec()));
        assert_eq!(t.recv().expect("recv"), None);
    }

    #[test]
    fn memory_pair_link_cut_and_refusal() {
        let (mut t, peer) = memory_pair();
        t.connect().expect("connect");
        peer.drop_link();
        assert_eq!(t.send(b"x"), Err(TransportError::Disconnected));
        peer.refuse_connects(true);
        assert_eq!(t.connect(), Err(TransportError::Refused));
        peer.refuse_connects(false);
        t.connect().expect("reconnect");
        assert!(peer.is_connected());
    }

    #[test]
    fn framed_codec_round_trips_and_guards_length() {
        let wire = encode_framed(b"hello");
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(
            read_framed(&mut cursor).expect("read"),
            Some(b"hello".to_vec())
        );
        assert_eq!(read_framed(&mut cursor).expect("eof"), None);

        let mut bogus = io::Cursor::new((u32::MAX).to_le_bytes().to_vec());
        assert!(read_framed(&mut bogus).is_err());
    }
}
