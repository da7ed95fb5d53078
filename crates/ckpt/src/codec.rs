//! Fixed-layout binary codec for checkpoint payloads.
//!
//! Everything is little-endian with explicit widths; `f64` travels as
//! its IEEE-754 bit pattern via [`f64::to_bits`], so a value restored
//! from a checkpoint compares bit-identical to the value saved — JSON
//! round-tripping cannot guarantee that, and deterministic resume
//! requires it. Decoding never panics: every read is bounds-checked
//! and returns a [`DecodeError`] on malformed input, which is what
//! lets corrupted checkpoints be *rejected* rather than crash the
//! process.
//!
//! A persisted type states its layout once, as a [`Wire`] impl beside its
//! definition: [`wire_struct!`](crate::wire_struct) for a struct whose
//! every field travels (one field list is both directions, and the
//! compiler rejects a list that misses a field), a hand-written impl for
//! enums and for structs that decode through a validating constructor.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Error produced by [`Dec`] on malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a fixed-width read could complete.
    UnexpectedEof {
        /// Byte offset at which the read started.
        at: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// A length prefix exceeded the remaining input (or `usize`).
    BadLength {
        /// Byte offset of the length prefix.
        at: usize,
        /// The declared length.
        declared: u64,
    },
    /// A string field did not hold valid UTF-8.
    InvalidUtf8 {
        /// Byte offset of the string payload.
        at: usize,
    },
    /// Input bytes remained after the final expected field.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A tag byte did not name a known variant of `what`.
    UnknownTag {
        /// What was being decoded (e.g. `"event"`).
        what: &'static str,
        /// The unrecognised tag value.
        tag: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof {
                at,
                needed,
                remaining,
            } => write!(
                f,
                "unexpected end of input at byte {at}: needed {needed} bytes, {remaining} remain"
            ),
            DecodeError::InvalidBool(b) => write!(f, "invalid bool byte {b:#04x}"),
            DecodeError::BadLength { at, declared } => {
                write!(f, "length prefix {declared} at byte {at} exceeds input")
            }
            DecodeError::InvalidUtf8 { at } => write!(f, "invalid UTF-8 at byte {at}"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after final field")
            }
            DecodeError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag {tag}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only encoder. All writes are infallible.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes `v` in its [`Wire`] layout.
    pub fn put<T: Wire>(&mut self, v: &T) {
        v.put(self);
    }

    /// Writes a sequence the way every collection travels: a `usize`
    /// count, then each item in iteration order.
    pub fn seq<'a, T: Wire + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.usize(items.len());
        for item in items {
            item.put(self);
        }
    }
}

/// Bounds-checked decoder over a byte slice. Never panics.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Succeeds only when every input byte has been consumed; call as
    /// the last step of decoding a payload to reject oversized input.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                at: self.pos,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        let mut w = [0u8; 4];
        w.copy_from_slice(b);
        Ok(u32::from_le_bytes(w))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that do not
    /// fit (or could not possibly index the remaining input).
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let at = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::BadLength { at, declared: v })
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::InvalidBool(b)),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let at = self.pos;
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(DecodeError::BadLength {
                at,
                declared: n as u64,
            });
        }
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let at = self.pos;
        let b = self.bytes()?;
        std::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|_| DecodeError::InvalidUtf8 { at })
    }

    /// Reads a `T` in its [`Wire`] layout.
    pub fn get<T: Wire>(&mut self) -> Result<T, DecodeError> {
        T::take(self)
    }

    /// Reads a sequence written by [`Enc::seq`] into the collection
    /// `start` makes, one `push` per item. The count is input, so
    /// `start` is offered room for at most `PREALLOC_ITEMS` of them;
    /// a longer sequence grows as its items actually decode, and a
    /// count the input cannot back ends in `UnexpectedEof`.
    fn seq<T: Wire, C>(
        &mut self,
        start: impl FnOnce(usize) -> C,
        mut push: impl FnMut(&mut C, T),
    ) -> Result<C, DecodeError> {
        let n = self.usize()?;
        let mut out = start(n.min(PREALLOC_ITEMS));
        for _ in 0..n {
            push(&mut out, self.get()?);
        }
        Ok(out)
    }
}

/// The most items a declared length may reserve room for before any of
/// them has decoded.
const PREALLOC_ITEMS: usize = 4_096;

/// A value with one wire layout, written by [`Wire::put`] and read back
/// bit-identically by [`Wire::take`]. Callers go through [`Enc::put`] and
/// [`Dec::get`].
pub trait Wire: Sized {
    /// Appends this value's layout to `e`.
    fn put(&self, e: &mut Enc);

    /// Reads one value in the layout [`Wire::put`] writes.
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError>;
}

/// The primitives travel as the [`Enc`]/[`Dec`] method of the same name.
macro_rules! wire_primitive {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, e: &mut Enc) {
                e.$ty(*self);
            }
            fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                d.$ty()
            }
        }
    )*};
}
wire_primitive!(u8, u32, u64, usize, f64, bool);

impl Wire for String {
    fn put(&self, e: &mut Enc) {
        e.str(self);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.str()
    }
}

/// A presence byte, then the value if there is one.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Enc) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.put(e);
        }
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(if d.bool()? { Some(d.get()?) } else { None })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, e: &mut Enc) {
        e.seq(self.iter());
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.seq(Vec::with_capacity, Vec::push)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn put(&self, e: &mut Enc) {
        e.seq(self.iter());
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.seq(
            |_| BTreeSet::new(),
            |set, item| {
                set.insert(item);
            },
        )
    }
}

/// A count, then each key followed by its value, in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, e: &mut Enc) {
        e.usize(self.len());
        for (k, v) in self {
            k.put(e);
            v.put(e);
        }
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.seq(
            |_| BTreeMap::new(),
            |map, (k, v)| {
                map.insert(k, v);
            },
        )
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok((d.get()?, d.get()?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
        self.2.put(e);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok((d.get()?, d.get()?, d.get()?))
    }
}

/// Implements [`Wire`] for a struct whose every field travels, in the
/// order listed: the one list is the layout in both directions. Invoke it
/// beside the struct's definition. `put` destructures and `take` rebuilds
/// the struct with no `..`, so a field missing from the list is a compile
/// error (E0027 / E0063), not a checkpoint that silently resumes without
/// it.
///
/// ```
/// use iobt_ckpt::{wire_struct, Dec, Enc};
///
/// #[derive(Debug, PartialEq)]
/// struct Fix {
///     node: u64,
///     at_s: f64,
///     heard: Vec<u32>,
/// }
/// wire_struct!(Fix {
///     node,
///     at_s,
///     heard,
/// });
///
/// let fix = Fix { node: 7, at_s: 1.5, heard: vec![2, 3] };
/// let mut e = Enc::new();
/// e.put(&fix);
/// let bytes = e.into_bytes();
/// assert_eq!(Dec::new(&bytes).get::<Fix>(), Ok(fix));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Wire for $ty {
            fn put(&self, e: &mut $crate::Enc) {
                let $ty { $($field),* } = self;
                $(e.put($field);)*
            }
            fn take(d: &mut $crate::Dec<'_>) -> ::core::result::Result<Self, $crate::DecodeError> {
                Ok($ty { $($field: d.get()?),* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.usize(42);
        e.f64(-0.1);
        e.f64(f64::INFINITY);
        e.f64(f64::NAN);
        e.bool(true);
        e.bool(false);
        e.bytes(&[1, 2, 3]);
        e.str("jammer ∆");
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), Ok(7));
        assert_eq!(d.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(d.u64(), Ok(u64::MAX - 3));
        assert_eq!(d.usize(), Ok(42));
        assert_eq!(d.f64().map(f64::to_bits), Ok((-0.1f64).to_bits()));
        assert_eq!(d.f64(), Ok(f64::INFINITY));
        assert!(d.f64().is_ok_and(f64::is_nan));
        assert_eq!(d.bool(), Ok(true));
        assert_eq!(d.bool(), Ok(false));
        assert_eq!(d.bytes(), Ok(&[1u8, 2, 3][..]));
        assert_eq!(d.str().as_deref(), Ok("jammer ∆"));
        assert_eq!(d.finish(), Ok(()));
    }

    #[test]
    fn f64_bit_patterns_survive_exactly() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef), // a payloaded NaN
        ] {
            let mut e = Enc::new();
            e.f64(v);
            let b = e.into_bytes();
            let got = Dec::new(&b).f64().map(f64::to_bits);
            assert_eq!(got, Ok(v.to_bits()));
        }
    }

    #[test]
    fn eof_and_bad_length_are_errors_not_panics() {
        let mut d = Dec::new(&[1, 2]);
        assert!(matches!(d.u32(), Err(DecodeError::UnexpectedEof { .. })));

        // Length prefix claims 100 bytes but only 1 follows.
        let mut e = Enc::new();
        e.usize(100);
        e.u8(9);
        let b = e.into_bytes();
        let mut d = Dec::new(&b);
        assert!(matches!(d.bytes(), Err(DecodeError::BadLength { .. })));
    }

    #[test]
    fn invalid_bool_and_utf8_rejected() {
        let mut d = Dec::new(&[3]);
        assert_eq!(d.bool(), Err(DecodeError::InvalidBool(3)));

        let mut e = Enc::new();
        e.bytes(&[0xFF, 0xFE]);
        let b = e.into_bytes();
        let mut d = Dec::new(&b);
        assert!(matches!(d.str(), Err(DecodeError::InvalidUtf8 { .. })));
    }

    #[test]
    fn wire_collections_keep_the_layout_the_loops_wrote() {
        let set: BTreeSet<u64> = [9, 4].into();
        let map: BTreeMap<u32, (f64, bool)> = [(2, (0.5, true)), (1, (-0.0, false))].into();
        let mut e = Enc::new();
        e.put(&Some(7u32));
        e.put(&None::<String>);
        e.put(&vec![(1u64, "a".to_string(), 2u8)]);
        e.put(&set);
        e.put(&map);
        let bytes = e.into_bytes();

        // The same bytes, spelled with the primitives alone.
        let mut by_hand = Enc::new();
        by_hand.bool(true);
        by_hand.u32(7);
        by_hand.bool(false);
        by_hand.usize(1);
        by_hand.u64(1);
        by_hand.str("a");
        by_hand.u8(2);
        by_hand.usize(2);
        by_hand.u64(4);
        by_hand.u64(9);
        by_hand.usize(2);
        by_hand.u32(1);
        by_hand.f64(-0.0);
        by_hand.bool(false);
        by_hand.u32(2);
        by_hand.f64(0.5);
        by_hand.bool(true);
        assert_eq!(bytes, by_hand.into_bytes());

        let mut d = Dec::new(&bytes);
        assert_eq!(d.get(), Ok(Some(7u32)));
        assert_eq!(d.get(), Ok(None::<String>));
        assert_eq!(d.get(), Ok(vec![(1u64, "a".to_string(), 2u8)]));
        assert_eq!(d.get(), Ok(set));
        assert_eq!(d.get(), Ok(map));
        assert_eq!(d.finish(), Ok(()));
    }

    #[test]
    fn a_declared_length_never_sizes_an_allocation() {
        // A prefix claiming 2^40 items over three that exist: room for
        // 2^40 `u64`s would abort the process, not fail the test.
        let mut e = Enc::new();
        e.u64(1 << 40);
        for v in 0..3u64 {
            e.u64(v);
        }
        let bytes = e.into_bytes();
        let eof = |r: Result<(), DecodeError>| matches!(r, Err(DecodeError::UnexpectedEof { .. }));
        assert!(eof(Dec::new(&bytes).get::<Vec<u64>>().map(drop)));
        assert!(eof(Dec::new(&bytes).get::<BTreeSet<u64>>().map(drop)));
        assert!(eof(Dec::new(&bytes).get::<BTreeMap<u64, u64>>().map(drop)));
        // The sequence reader offers the bound and no more, however long
        // the sequence says it is, and exactly the count when it is short.
        let offered = |bytes: &[u8]| {
            let mut room = 0;
            let _ = Dec::new(bytes).seq(|n| room = n, |_, _: u64| {});
            room
        };
        assert_eq!(offered(&bytes), PREALLOC_ITEMS);
        assert_eq!(offered(&[3, 0, 0, 0, 0, 0, 0, 0]), 3);
        // A sequence longer than the bound still decodes whole.
        let long: Vec<u32> = (0..PREALLOC_ITEMS as u32 + 5).collect();
        let mut e = Enc::new();
        e.put(&long);
        assert_eq!(Dec::new(&e.into_bytes()).get(), Ok(long));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut d = Dec::new(&[1, 2, 3]);
        let _ = d.u8();
        assert_eq!(d.finish(), Err(DecodeError::TrailingBytes { remaining: 2 }));
    }
}
