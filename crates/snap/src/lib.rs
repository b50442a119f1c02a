#![warn(missing_docs)]

//! `raccd-snap`: a versioned, chunked binary snapshot format.
//!
//! Checkpointing a cycle-level simulator is only useful if a restored run is
//! *bit-identical* to an uninterrupted one — otherwise a checkpoint is a
//! different experiment, not a resumable artifact (gem5's checkpointing and
//! the BedRock validation flow both hinge on this). This crate provides the
//! wire format and the encoding discipline that makes that guarantee
//! checkable:
//!
//! * [`Snap`] — a hand-rolled save/load trait (the workspace is offline; no
//!   serde). All integers are little-endian fixed-width; hash maps are
//!   encoded in sorted key order so the same logical state always produces
//!   the same bytes. Sequences go through two provided hooks,
//!   [`Snap::save_slice`] and [`Snap::load_vec`]: the default is the
//!   element loop, and fixed-width types override both with one bulk copy
//!   ([`SnapWriter::words`] / [`SnapReader::words`]) of the same bytes.
//! * [`Snapshot`] — a chunked container: `RSNP` magic, format version,
//!   tagged sections each protected by a CRC-32, and an FNV-1a-64 content
//!   hash trailer over every tag and payload. Corruption is detected at
//!   the section that suffered it; truncation is detected by the trailer.
//!   Writing and reading an archive is one pass over its bytes: both
//!   checksums advance in the same loop, and FNV-1a's serial multiply is
//!   what that loop costs.
//! * [`crc32`] / [`fnv1a64`] — the two checksums, exposed so tests and the
//!   golden-header CI check can recompute them independently. The CRC is
//!   computed by slicing-by-8 (eight bytes a step through eight
//!   `const`-built tables, byte-at-a-time tail); the byte-at-a-time forms
//!   live on as the models in `tests/checksums.rs`.
//! * [`snap_record!`] / [`snap_enum!`]: how a type joins a snapshot, in the
//!   crate that owns its fields. A record lists its fields once, in wire
//!   order, and an enum its tag bytes; the macro derives `save` and `load`
//!   from that one list. A type with a derived or unsaved field, or a
//!   format trick, writes its `impl Snap` by hand and says which in a
//!   line. `raccd-sim` assembles whole-machine snapshots from those
//!   sections (DESIGN.md §10).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Magic bytes opening every snapshot byte stream.
pub const MAGIC: [u8; 4] = *b"RSNP";

/// Current snapshot format version. Bump on any incompatible layout change;
/// the CI golden-header check fails when the committed header disagrees.
pub const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC state byte `b`
/// becomes after `k` further zero bytes, so eight input bytes fold into
/// the state with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 64 {
            c = (c >> 1) ^ if c & 1 != 0 { 0xEDB8_8320 } else { 0 };
            bit += 1;
            if bit % 8 == 0 {
                tables[bit / 8 - 1][i] = c;
            }
        }
        i += 1;
    }
    tables
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Advance a raw CRC-32 state and an FNV-1a-64 state over `bytes` in one
/// pass, eight bytes per step. The two dependency chains are independent,
/// so the CRC lookups run in the shadow of FNV's serial multiply and the
/// pair costs what FNV alone does; a caller that drops one of the two
/// results pays only for the other (the unused chain is dead code once
/// this is inlined).
#[inline(always)]
fn sums(bytes: &[u8], mut c: u32, mut h: u64) -> (u32, u64) {
    let fnv_byte = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(FNV_PRIME);
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        let x = u64::from_le_bytes(*word) ^ c as u64;
        c = (0..8).fold(0, |acc, j| {
            acc ^ CRC_TABLES[7 - j][(x >> (8 * j)) as u8 as usize]
        });
        h = word.iter().fold(h, |h, &b| fnv_byte(h, b));
    }
    for &b in tail {
        c = CRC_TABLES[0][(c as u8 ^ b) as usize] ^ (c >> 8);
        h = fnv_byte(h, b);
    }
    (c, h)
}

/// Advance an FNV-1a-64 state over `bytes`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    sums(bytes, 0, h).1
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte slice, by
/// slicing-by-8 with a byte-at-a-time tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    !sums(bytes, !0, 0).0
}

/// FNV-1a 64-bit hash of a byte slice (content-hash trailer).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv(FNV_OFFSET, bytes)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Decode-side failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the value it was supposed to hold.
    Eof,
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's format version is not [`FORMAT_VERSION`].
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A section's payload failed its CRC-32.
    BadCrc {
        /// Tag of the corrupted section.
        tag: String,
    },
    /// The trailer content hash disagrees with the decoded payloads.
    BadHash,
    /// A requested section tag is absent.
    MissingSection {
        /// The tag that was looked up.
        tag: String,
    },
    /// A value decoded but violates its type's invariants.
    Invalid(&'static str),
    /// Bytes remain after the value a decoder was asked for.
    TrailingBytes,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof => write!(f, "unexpected end of snapshot stream"),
            SnapError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapError::BadVersion { found } => write!(
                f,
                "snapshot format version {found} (this build reads {FORMAT_VERSION})"
            ),
            SnapError::BadCrc { tag } => write!(f, "section '{tag}' failed its CRC"),
            SnapError::BadHash => write!(f, "content hash mismatch (truncated or tampered)"),
            SnapError::MissingSection { tag } => write!(f, "snapshot has no section '{tag}'"),
            SnapError::Invalid(what) => write!(f, "invalid snapshot value: {what}"),
            SnapError::TrailingBytes => write!(f, "trailing bytes after decoded value"),
        }
    }
}

impl std::error::Error for SnapError {}

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

/// Append-only byte sink for [`Snap::save`].
#[derive(Clone, Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consume the writer, yielding its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes verbatim.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a run of `N`-byte words (the `to_le_bytes` of a slice of
    /// integers) with one resize and one copy loop.
    pub fn words<const N: usize>(&mut self, words: impl ExactSizeIterator<Item = [u8; N]>) {
        let at = self.buf.len();
        self.buf.resize(at + words.len() * N, 0);
        for (dst, word) in self.buf[at..].as_chunks_mut().0.iter_mut().zip(words) {
            *dst = word;
        }
    }
}

/// Cursor over a byte slice for [`Snap::load`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.bytes(1)?[0])
    }

    /// Take a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Take a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Take `n` words of `N` bytes each. The byte count is checked against
    /// the remaining stream (overflow included) before anything is built
    /// from it.
    pub fn words<const N: usize>(&mut self, n: usize) -> Result<&'a [[u8; N]], SnapError> {
        let bytes = self.bytes(n.checked_mul(N).ok_or(SnapError::Eof)?)?;
        Ok(bytes.as_chunks().0)
    }

    /// Consume zero bytes, at most `max` of them, eight per step while
    /// eight remain: stops at the first non-zero byte, at `max` or at the
    /// end of the stream, and returns how many it consumed. A run of
    /// empty `Option` slots is such a run of `0` tag bytes.
    pub fn zeros(&mut self, max: usize) -> usize {
        let start = self.pos;
        let end = self.pos + max.min(self.remaining());
        while end - self.pos >= 8 {
            let word = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
            if word != 0 {
                self.pos += word.trailing_zeros() as usize / 8;
                return self.pos - start;
            }
            self.pos += 8;
        }
        while self.pos < end && self.buf[self.pos] == 0 {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Take a u64 length prefix, guarding against lengths that cannot fit in
    /// the remaining stream (so corrupt lengths fail fast, not via OOM).
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(SnapError::Eof);
        }
        Ok(n as usize)
    }
}

// ---------------------------------------------------------------------------
// The Snap trait + impls
// ---------------------------------------------------------------------------

/// A type that can serialize itself into a snapshot byte stream and
/// reconstruct itself, bit-identically, from one.
pub trait Snap: Sized {
    /// Append this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Decode one value from `r`, advancing the cursor past it.
    fn load(r: &mut SnapReader) -> Result<Self, SnapError>;

    /// Append the encodings of `vs` back to back (no length prefix): the
    /// element loop every sequence container shares. Fixed-width types
    /// override it with one bulk copy of the same bytes.
    fn save_slice(vs: &[Self], w: &mut SnapWriter) {
        for v in vs {
            v.save(w);
        }
    }

    /// Decode `n` values laid out back to back. `n` comes from the stream,
    /// so the up-front reservation is capped in bytes, not elements.
    fn load_vec(r: &mut SnapReader, n: usize) -> Result<Vec<Self>, SnapError> {
        let mut out = Vec::with_capacity(reserve_cap::<Self>(n));
        for _ in 0..n {
            out.push(Self::load(r)?);
        }
        Ok(out)
    }
}

/// How many `T`s a decoder may reserve ahead of decoding a claimed count of
/// `n`: at most 1 MiB worth, whatever `size_of::<T>()` is. A hand-written
/// `load` that decodes a sequence in place reserves through this too.
pub fn reserve_cap<T>(n: usize) -> usize {
    n.min((1 << 20) / core::mem::size_of::<T>().max(1))
}

/// Encode a single value to bytes.
pub fn encode<T: Snap>(v: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    v.save(&mut w);
    w.into_bytes()
}

/// Decode a single value from bytes, requiring full consumption.
pub fn decode<T: Snap>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut r = SnapReader::new(bytes);
    let v = T::load(&mut r)?;
    if r.remaining() != 0 {
        return Err(SnapError::TrailingBytes);
    }
    Ok(v)
}

/// Fixed-width scalars: the value's `to_le_bytes`, and slices of them as
/// one bulk copy of the same bytes.
macro_rules! snap_le {
    ($ty:ty) => {
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.bytes(&self.to_le_bytes());
            }
            fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
                Ok(<$ty>::from_le_bytes(r.words(1)?[0]))
            }
            fn save_slice(vs: &[Self], w: &mut SnapWriter) {
                w.words(vs.iter().map(|v| v.to_le_bytes()));
            }
            fn load_vec(r: &mut SnapReader, n: usize) -> Result<Vec<Self>, SnapError> {
                Ok(r.words(n)?
                    .iter()
                    .map(|w| <$ty>::from_le_bytes(*w))
                    .collect())
            }
        }
    };
}

snap_le!(u8);
snap_le!(u16);
snap_le!(u32);
snap_le!(u64);
snap_le!(u128);
snap_le!(i8);
snap_le!(i16);
snap_le!(i32);
snap_le!(i64);
snap_le!(f32);
snap_le!(f64);

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        usize::try_from(r.u64()?).map_err(|_| SnapError::Invalid("usize overflow"))
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self as u8);
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Invalid("bool byte not 0/1")),
        }
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        w.bytes(self.as_bytes());
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        String::from_utf8(Vec::load(r)?).map_err(|_| SnapError::Invalid("string not UTF-8"))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(SnapError::Invalid("option tag not 0/1")),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        T::save_slice(self, w);
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        // A zero-sized element would defeat the len-vs-remaining guard, but
        // no Snap impl encodes to zero bytes; keep the cheap guard.
        let n = r.len_prefix()?;
        T::load_vec(r, n)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        let (front, back) = self.as_slices();
        T::save_slice(front, w);
        T::save_slice(back, w);
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        Vec::load(r).map(VecDeque::from)
    }
}

impl<const N: usize, T: Snap> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        T::save_slice(self, w);
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        let vs = T::load_vec(r, N)?;
        Ok(vs.try_into().ok().expect("load_vec yields n values"))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// `HashMap` iteration order is nondeterministic, so entries are written in
/// sorted key order — the same logical map always yields the same bytes
/// (the property the content hash and the bisector depend on).
impl<K: Snap + Ord + Hash, V: Snap, S: BuildHasher + Default> Snap for HashMap<K, V, S> {
    fn save(&self, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        w.u64(keys.len() as u64);
        for k in keys {
            k.save(w);
            self[k].save(w);
        }
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = HashMap::with_capacity_and_hasher(reserve_cap::<(K, V)>(n), S::default());
        for _ in 0..n {
            out.insert(K::load(r)?, V::load(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Vec::<(K, V)>::load(r)?.into_iter().collect())
    }
}

impl<K: Snap + Ord> Snap for BTreeSet<K> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for k in self {
            k.save(w);
        }
    }
    fn load(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Vec::<K>::load(r)?.into_iter().collect())
    }
}

// ---------------------------------------------------------------------------
// Declared records and enums
// ---------------------------------------------------------------------------

/// Implement [`Snap`] for a struct from one list of its fields: the wire
/// layout is the listed fields in the listed order, each through its own
/// `Snap`. The list must name every field (it is an exhaustive
/// destructure, so a field added to the struct and not to the list is a
/// compile error); a type with a field that is derived or not saved writes
/// its impl by hand. The optional `where |v| cond, "label"` clause is the
/// invariant a decoded value must hold: `load` returns
/// [`SnapError::Invalid`]`("label")` when `cond` is false of it.
///
/// ```
/// use raccd_snap::{decode, encode, snap_record, SnapError};
///
/// #[derive(Debug, PartialEq)]
/// struct Window {
///     start: u64,
///     len: u32,
/// }
/// snap_record!(Window { start, len } where |w| w.len > 0, "window length");
///
/// let bytes = encode(&Window { start: 7, len: 2 });
/// assert_eq!(bytes, [7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0]);
/// assert_eq!(decode::<Window>(&bytes), Ok(Window { start: 7, len: 2 }));
/// assert_eq!(
///     decode::<Window>(&[0; 12]),
///     Err(SnapError::Invalid("window length"))
/// );
/// ```
#[macro_export]
macro_rules! snap_record {
    ($ty:ty { $($field:ident),* $(,)? } $(where |$v:ident| $cond:expr, $label:literal)?) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                let Self { $($field),* } = self;
                $($crate::Snap::save($field, w);)*
            }
            fn load(r: &mut $crate::SnapReader) -> Result<Self, $crate::SnapError> {
                let v = Self { $($field: $crate::Snap::load(r)?),* };
                $(
                    let $v = &v;
                    if !($cond) {
                        return Err($crate::SnapError::Invalid($label));
                    }
                )?
                Ok(v)
            }
        }
    };
}

/// Implement [`Snap`] for an enum: one explicit tag byte, then the
/// variant's listed fields in order. The tags are the format: a variant
/// keeps its number for as long as `FORMAT_VERSION` stands, whatever
/// order the enum declares its variants in. A byte that is no variant's
/// tag decodes to [`SnapError::Invalid`]`("label")`.
///
/// ```
/// use raccd_snap::{decode, encode, snap_enum, SnapError};
///
/// #[derive(Debug, PartialEq)]
/// enum Fill {
///     Miss,
///     Hit { way: u8, dirty: bool },
/// }
/// snap_enum!(Fill, "fill tag" { 0 => Miss, 1 => Hit { way, dirty } });
///
/// assert_eq!(encode(&Fill::Miss), [0]);
/// let hit = Fill::Hit { way: 3, dirty: true };
/// assert_eq!(encode(&hit), [1, 3, 1]);
/// assert_eq!(decode::<Fill>(&[1, 3, 1]), Ok(hit));
/// assert_eq!(decode::<Fill>(&[2]), Err(SnapError::Invalid("fill tag")));
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ty, $label:literal {
        $($tag:literal => $variant:ident $({ $($field:ident),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $(Self::$variant { $($($field),*)? } => {
                        w.u8($tag);
                        $($($crate::Snap::save($field, w);)*)?
                    })*
                }
            }
            fn load(r: &mut $crate::SnapReader) -> Result<Self, $crate::SnapError> {
                Ok(match r.u8()? {
                    $($tag => Self::$variant { $($($field: $crate::Snap::load(r)?),*)? },)*
                    _ => return Err($crate::SnapError::Invalid($label)),
                })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Chunked container
// ---------------------------------------------------------------------------

/// One tagged section of a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Section {
    tag: String,
    payload: Vec<u8>,
}

/// A chunked, versioned snapshot: an ordered list of tagged sections.
///
/// Byte layout:
///
/// ```text
/// "RSNP"  u32 version  u64 nsections
/// per section:  u64 tag_len, tag bytes, u64 payload_len, u32 crc32(payload), payload
/// trailer:      u64 fnv1a64(all tag bytes ++ payload bytes, in order)
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    sections: Vec<Section>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Encode `value` and append it as section `tag`. Tags must be unique;
    /// re-adding an existing tag replaces its payload (so incremental
    /// builders can overwrite).
    pub fn put<T: Snap>(&mut self, tag: &str, value: &T) {
        self.put_raw(tag, encode(value));
    }

    /// Append (or replace) a section from pre-encoded bytes.
    pub fn put_raw(&mut self, tag: &str, payload: Vec<u8>) {
        if let Some(s) = self.sections.iter_mut().find(|s| s.tag == tag) {
            s.payload = payload;
        } else {
            self.sections.push(Section {
                tag: tag.to_string(),
                payload,
            });
        }
    }

    /// Decode section `tag` as a `T`, requiring the payload be fully
    /// consumed.
    pub fn get<T: Snap>(&self, tag: &str) -> Result<T, SnapError> {
        decode(self.raw(tag)?)
    }

    /// Raw payload of section `tag`.
    pub fn raw(&self, tag: &str) -> Result<&[u8], SnapError> {
        self.sections
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| s.payload.as_slice())
            .ok_or_else(|| SnapError::MissingSection {
                tag: tag.to_string(),
            })
    }

    /// Whether a section with this tag exists.
    pub fn has(&self, tag: &str) -> bool {
        self.sections.iter().any(|s| s.tag == tag)
    }

    /// Section tags in order.
    pub fn tags(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.tag.as_str()).collect()
    }

    /// Total payload bytes across all sections (the denominator of the
    /// benchmark's `snap.*_mb_per_s` rows).
    pub fn payload_bytes(&self) -> u64 {
        self.sections.iter().map(|s| s.payload.len() as u64).sum()
    }

    /// FNV-1a-64 over all tag and payload bytes in order — the value the
    /// trailer records. Two snapshots with equal content hash hold
    /// byte-identical state.
    pub fn content_hash(&self) -> u64 {
        self.sections
            .iter()
            .fold(FNV_OFFSET, |h, s| fnv(fnv(h, s.tag.as_bytes()), &s.payload))
    }

    /// Serialize to the on-disk byte format: one exactly-sized buffer, one
    /// checksum pass per section.
    pub fn to_bytes(&self) -> Vec<u8> {
        let framing: usize = self.sections.iter().map(|s| 20 + s.tag.len()).sum();
        let buf = Vec::with_capacity(24 + framing + self.payload_bytes() as usize);
        let mut w = SnapWriter { buf };
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(self.sections.len() as u64);
        let mut hash = FNV_OFFSET;
        for s in &self.sections {
            let (crc, h) = sums(&s.payload, !0, fnv(hash, s.tag.as_bytes()));
            hash = h;
            w.u64(s.tag.len() as u64);
            w.bytes(s.tag.as_bytes());
            w.u64(s.payload.len() as u64);
            w.u32(!crc);
            w.bytes(&s.payload);
        }
        w.u64(hash);
        w.into_bytes()
    }

    /// Parse the on-disk byte format, validating magic, version, every
    /// section CRC and the trailer content hash. Each payload is checked
    /// where it lies in `bytes` and copied once, after its CRC has passed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        if r.bytes(4)? != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapError::BadVersion { found: version });
        }
        let nsections = r.u64()?;
        let mut sections = Vec::new();
        let mut hash = FNV_OFFSET;
        for _ in 0..nsections {
            let tag_len = r.len_prefix()?;
            let tag = String::from_utf8(r.bytes(tag_len)?.to_vec())
                .map_err(|_| SnapError::Invalid("section tag not UTF-8"))?;
            let payload_len = r.len_prefix()?;
            let recorded = r.u32()?;
            let payload = r.bytes(payload_len)?;
            let (crc, h) = sums(payload, !0, fnv(hash, tag.as_bytes()));
            if !crc != recorded {
                return Err(SnapError::BadCrc { tag });
            }
            hash = h;
            let payload = payload.to_vec();
            sections.push(Section { tag, payload });
        }
        if r.u64()? != hash {
            return Err(SnapError::BadHash);
        }
        if r.remaining() != 0 {
            return Err(SnapError::TrailingBytes);
        }
        Ok(Snapshot { sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn primitive_roundtrips() {
        fn rt<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
            assert_eq!(decode::<T>(&encode(&v)).unwrap(), v);
        }
        rt(0u8);
        rt(255u8);
        rt(0xDEADu16);
        rt(0xDEAD_BEEFu32);
        rt(u64::MAX);
        rt(u128::MAX - 7);
        rt(-42i32);
        rt(i64::MIN);
        rt(usize::MAX);
        rt(true);
        rt(false);
        rt(1.5f32);
        rt(-0.0f64);
        rt(String::from("hello κόσμε"));
        rt(Option::<u64>::None);
        rt(Some(9u64));
        rt(vec![1u64, 2, 3]);
        rt((1u32, String::from("x")));
        rt((1u8, 2u16, 3u32));
        rt([7u64, 8, 9, 10]);
        rt(VecDeque::from([1u32, 2, 3]));
    }

    #[test]
    fn nan_payload_bits_preserved() {
        let bits = 0x7FF8_0000_0000_1234u64;
        let v = f64::from_bits(bits);
        let back = decode::<f64>(&encode(&v)).unwrap();
        assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn hashmap_encoding_is_order_independent() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..100u64 {
            a.insert(i, i * 3);
        }
        for i in (0..100u64).rev() {
            b.insert(i, i * 3);
        }
        assert_eq!(encode(&a), encode(&b));
        assert_eq!(decode::<HashMap<u64, u64>>(&encode(&a)).unwrap(), a);
    }

    #[test]
    fn collection_roundtrips() {
        let bt: BTreeMap<u64, String> = (0..10).map(|i| (i, format!("v{i}"))).collect();
        assert_eq!(decode::<BTreeMap<u64, String>>(&encode(&bt)).unwrap(), bt);
        let bs: BTreeSet<u64> = (0..10).collect();
        assert_eq!(decode::<BTreeSet<u64>>(&encode(&bs)).unwrap(), bs);
    }

    #[test]
    fn truncated_stream_errors_not_panics() {
        let bytes = encode(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            assert!(decode::<Vec<u64>>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bogus_length_prefix_is_rejected() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // claims 2^64-1 elements
        assert_eq!(decode::<Vec<u64>>(&w.into_bytes()), Err(SnapError::Eof));

        // A count the stream could hold at one byte an element must not
        // become a reservation of count x size_of::<T>(): the cap is 1 MiB
        // of elements, not 2^20 of them.
        type Wide = (u128, [u64; 14]);
        assert_eq!(core::mem::size_of::<Wide>(), 128);
        assert_eq!(reserve_cap::<Wide>(1 << 20), 1 << 13);
        assert_eq!(reserve_cap::<Wide>(5), 5);
        assert_eq!(reserve_cap::<u8>(usize::MAX), 1 << 20);
        assert_eq!(reserve_cap::<[u8; 3 << 20]>(9), 0);
        assert_eq!(reserve_cap::<()>(9), 9);
        let mut w = SnapWriter::new();
        w.u64(1 << 20);
        w.bytes(&vec![0; 1 << 20]);
        let bytes = w.into_bytes();
        assert_eq!(decode::<Vec<Wide>>(&bytes), Err(SnapError::Eof));
        assert_eq!(decode::<VecDeque<Wide>>(&bytes), Err(SnapError::Eof));

        // The bulk integer path allocates nothing before n * size fits the
        // stream: 2^20 bytes cannot hold 2^20 u64s.
        assert_eq!(decode::<Vec<u64>>(&bytes), Err(SnapError::Eof));
        assert_eq!(decode::<VecDeque<u16>>(&bytes), Err(SnapError::Eof));
    }

    /// `zeros` stops at the first non-zero byte, at `max` and at the end of
    /// the stream, wherever each falls against the eight-byte steps.
    #[test]
    fn zeros_stops_at_a_nonzero_byte_the_cap_or_the_end() {
        for len in 0..40 {
            for one in (0..len).map(Some).chain([None]) {
                let mut bytes = vec![0u8; len];
                if let Some(at) = one {
                    bytes[at] = 1;
                }
                let run = one.unwrap_or(len);
                for max in [0, 1, 7, 8, 9, 16, 17, usize::MAX] {
                    let mut r = SnapReader::new(&bytes);
                    let n = r.zeros(max);
                    assert_eq!(n, run.min(max), "len {len}, one at {one:?}, max {max}");
                    assert_eq!(r.remaining(), len - n);
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&7u64);
        bytes.push(0);
        assert_eq!(decode::<u64>(&bytes), Err(SnapError::TrailingBytes));
    }

    #[test]
    fn container_roundtrip() {
        let mut s = Snapshot::new();
        s.put("meta", &(1u64, String::from("raccd")));
        s.put("data", &vec![1u8, 2, 3]);
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.tags(), vec!["meta", "data"]);
        assert_eq!(back.get::<Vec<u8>>("data").unwrap(), vec![1, 2, 3]);
        assert_eq!(back.content_hash(), s.content_hash());
    }

    #[test]
    fn container_detects_payload_corruption() {
        let mut s = Snapshot::new();
        s.put("a", &vec![0u8; 64]);
        let mut bytes = s.to_bytes();
        // Flip a payload byte (past the 4+4+8 header and section framing).
        let n = bytes.len();
        bytes[n - 20] ^= 0x40;
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, SnapError::BadCrc { .. } | SnapError::BadHash),
            "corruption must be detected, got {err:?}"
        );
    }

    #[test]
    fn container_detects_truncation() {
        let mut s = Snapshot::new();
        s.put("a", &42u64);
        let bytes = s.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Snapshot::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn container_rejects_wrong_magic_and_version() {
        let s = Snapshot::new();
        let mut bytes = s.to_bytes();
        bytes[0] = b'X';
        assert_eq!(Snapshot::from_bytes(&bytes), Err(SnapError::BadMagic));
        let mut bytes = s.to_bytes();
        bytes[4] = 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapError::BadVersion { .. })
        ));
    }

    #[test]
    fn put_replaces_existing_tag() {
        let mut s = Snapshot::new();
        s.put("x", &1u64);
        s.put("x", &2u64);
        assert_eq!(s.tags().len(), 1);
        assert_eq!(s.get::<u64>("x").unwrap(), 2);
    }

    #[test]
    fn missing_section_is_typed_error() {
        let s = Snapshot::new();
        assert_eq!(
            s.get::<u64>("nope"),
            Err(SnapError::MissingSection { tag: "nope".into() })
        );
    }
}
