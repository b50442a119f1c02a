//! The set-associative array's archive codec against the element loop it
//! replaced. `SetAssoc`'s `load` decodes its line vector in place (runs of
//! empty slots consumed in bulk, occupancy counted on the way) and
//! `TreePlru` slices go as one bulk copy; the models here are the generic
//! per-element encode and decode of `Vec<Option<Line<T>>>` and
//! `Vec<TreePlru>`. For L1, LLC and directory payloads and every
//! associativity from 1 to 64 ways, arrays with runs of 0 to 40 empty
//! slots (crossing the decoder's eight-byte steps), all-empty and all-full
//! ones decode to the model's values and re-encode to the model's bytes,
//! and every truncation and every single-byte change of an archive yields
//! exactly the model's `Result`.

use proptest::prelude::*;
use raccd_cache::{L1Line, L1State, Line, LlcLine, SetAssoc, TreePlru};
use raccd_protocol::DirEntry as EntryState;
use raccd_snap::{decode, encode, Snap, SnapError, SnapReader, SnapWriter};

const WAYS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// A line payload derived from a key, so a generated key picks its data.
trait Payload: Snap {
    fn from_key(k: u64) -> Self;
}

impl Payload for L1Line {
    fn from_key(k: u64) -> Self {
        use L1State::*;
        L1Line {
            state: [Modified, Exclusive, Shared, Forward, Owned][(k % 5) as usize],
            nc: k & 8 != 0,
            tid: (k >> 4) as u8,
        }
    }
}

impl Payload for LlcLine {
    fn from_key(k: u64) -> Self {
        LlcLine {
            dirty: k & 1 != 0,
            nc: k & 2 != 0,
        }
    }
}

impl Payload for EntryState {
    fn from_key(k: u64) -> Self {
        EntryState {
            sharers: k.rotate_left(17),
            owner: (k & 1 != 0).then_some((k >> 8) as u8),
            fwd: (k & 2 != 0).then_some((k >> 16) as u8),
        }
    }
}

/// The element loop `Vec<Option<Line<T>>>` saved through.
fn model_save_lines<T: Snap>(lines: &[Option<Line<T>>], w: &mut SnapWriter) {
    w.u64(lines.len() as u64);
    for slot in lines {
        match slot {
            None => w.u8(0),
            Some(l) => {
                w.u8(1);
                w.u64(l.key);
                l.data.save(w);
            }
        }
    }
}

/// The element loop `Vec<Option<Line<T>>>` loaded through.
fn model_load_lines<T: Snap>(r: &mut SnapReader) -> Result<Vec<Option<Line<T>>>, SnapError> {
    let n = r.len_prefix()?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(match r.u8()? {
            0 => None,
            1 => Some(Line {
                key: r.u64()?,
                data: T::load(r)?,
            }),
            _ => return Err(SnapError::Invalid("option tag not 0/1")),
        });
    }
    Ok(out)
}

/// `Vec<TreePlru>` as a record of one `u64` per tree, element by element.
fn model_save_plru(bits: &[u64], w: &mut SnapWriter) {
    w.u64(bits.len() as u64);
    for &b in bits {
        w.u64(b);
    }
}

fn model_load_plru(r: &mut SnapReader) -> Result<Vec<u64>, SnapError> {
    let n = r.len_prefix()?;
    (0..n).map(|_| r.u64()).collect()
}

/// `SetAssoc`'s archive fields, saved and loaded the element-loop way.
struct Model<T> {
    sets: usize,
    ways: usize,
    shift: u32,
    lines: Vec<Option<Line<T>>>,
    plru: Vec<u64>,
    occupied: usize,
}

impl<T: Snap> Model<T> {
    fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.sets.save(&mut w);
        self.ways.save(&mut w);
        w.u32(self.shift);
        model_save_lines(&self.lines, &mut w);
        model_save_plru(&self.plru, &mut w);
        self.occupied.save(&mut w);
        w.into_bytes()
    }

    /// Fields in wire order, the geometry check, and then (as `decode`
    /// does) no trailing bytes.
    fn load(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        let sets = usize::load(&mut r)?;
        let ways = usize::load(&mut r)?;
        let shift = r.u32()?;
        let lines = model_load_lines(&mut r)?;
        let plru = model_load_plru(&mut r)?;
        let occupied = usize::load(&mut r)?;
        if sets == 0
            || !ways.is_power_of_two()
            || ways > 64
            || sets.checked_mul(ways) != Some(lines.len())
            || plru.len() != sets
            || occupied != lines.iter().flatten().count()
        {
            return Err(SnapError::Invalid("set-assoc geometry"));
        }
        if r.remaining() != 0 {
            return Err(SnapError::TrailingBytes);
        }
        Ok(Model {
            sets,
            ways,
            shift,
            lines,
            plru,
            occupied,
        })
    }
}

/// What a decode yields, in a form both codecs share: the bytes the value
/// re-encodes to, its resident `(key, payload bytes)` in slot order, and
/// its sets, ways, shift and occupancy.
type Decoded = Result<(Vec<u8>, Vec<(u64, Vec<u8>)>, [usize; 4]), SnapError>;

fn decoded<T: Snap>(bytes: &[u8]) -> Decoded {
    decode::<SetAssoc<T>>(bytes).map(|a| {
        let lines = a.iter().map(|(k, d)| (k, encode(d))).collect();
        let shape = [a.sets(), a.ways(), a.index_shift() as usize, a.occupancy()];
        (encode(&a), lines, shape)
    })
}

fn decoded_model<T: Snap>(bytes: &[u8]) -> Decoded {
    Model::<T>::load(bytes).map(|m| {
        let lines = m.lines.iter().flatten();
        let lines = lines.map(|l| (l.key, encode(&l.data))).collect();
        let shape = [m.sets, m.ways, m.shift as usize, m.occupied];
        (m.save(), lines, shape)
    })
}

/// Every prefix of `bytes` and every single-byte change of it (to 0, 1, 2,
/// 0xFF and its high bit flipped) through both decoders.
fn assert_agree_on_damage(
    bytes: &[u8],
    new: impl Fn(&[u8]) -> Decoded,
    model: impl Fn(&[u8]) -> Decoded,
    what: &str,
) {
    for cut in 0..bytes.len() {
        assert_eq!(
            new(&bytes[..cut]),
            model(&bytes[..cut]),
            "{what}: cut at {cut}"
        );
    }
    let mut changed = bytes.to_vec();
    for at in 0..bytes.len() {
        for v in [0, 1, 2, 0xFF, bytes[at] ^ 0x80] {
            changed[at] = v;
            assert_eq!(
                new(&changed),
                model(&changed),
                "{what}: byte {at} set to {v}"
            );
        }
        changed[at] = bytes[at];
    }
}

fn assert_codec_agrees<T: Snap>(m: &Model<T>, what: &str) {
    let bytes = m.save();
    let whole = decoded::<T>(&bytes);
    assert_eq!(whole, decoded_model::<T>(&bytes), "{what}");
    assert_eq!(whole.map(|d| d.0), Ok(bytes.clone()), "{what}: re-encodes");
    assert_agree_on_damage(&bytes, decoded::<T>, decoded_model::<T>, what);
}

/// A `sets × ways` array laid out by `runs`: each is that many empty
/// slots, then one line keyed (and filled) by its key. Slots the runs do
/// not reach stay empty; the PLRU trees are the keys' bits, every other
/// tree untouched (zero).
fn from_runs<T: Payload>(sets: usize, ways: usize, shift: u32, runs: &[(usize, u64)]) -> Model<T> {
    let mut lines: Vec<Option<Line<T>>> = Vec::new();
    for &(empty, key) in runs {
        lines.extend((0..empty).map(|_| None));
        lines.push(Some(Line {
            key,
            data: T::from_key(key),
        }));
    }
    lines.resize_with(sets * ways, || None);
    lines.truncate(sets * ways);
    let plru = (0..sets)
        .map(|s| match runs[s % runs.len()].1 {
            k if k & 4 != 0 => k,
            _ => 0,
        })
        .collect();
    Model {
        sets,
        ways,
        shift,
        occupied: lines.iter().flatten().count(),
        lines,
        plru,
    }
}

fn assert_all_payloads_agree(
    sets: usize,
    ways: usize,
    shift: u32,
    runs: &[(usize, u64)],
    what: &str,
) {
    assert_codec_agrees(
        &from_runs::<L1Line>(sets, ways, shift, runs),
        &format!("L1 {what}"),
    );
    assert_codec_agrees(
        &from_runs::<LlcLine>(sets, ways, shift, runs),
        &format!("LLC {what}"),
    );
    assert_codec_agrees(
        &from_runs::<EntryState>(sets, ways, shift, runs),
        &format!("directory {what}"),
    );
}

/// The two ends: no line at all (one long run of empty tag bytes up to
/// the PLRU vector) and no empty slot.
#[test]
fn all_empty_and_all_full_arrays_match_the_element_loop() {
    for ways in WAYS {
        let all_empty = [(2 * ways, 0)];
        let all_full: Vec<(usize, u64)> =
            (0..2 * ways as u64).map(|k| (0, k * 0x9E37_79B9)).collect();
        assert_all_payloads_agree(2, ways, 4, &all_empty, &format!("all empty, {ways} ways"));
        assert_all_payloads_agree(2, ways, 4, &all_full, &format!("all full, {ways} ways"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arrays of every shipped associativity with runs of empty slots that
    /// start and end anywhere against the eight-byte steps.
    #[test]
    fn set_assoc_decode_matches_the_element_loop(
        way_index in 0usize..7,
        sets in 1usize..4,
        shift in 0u32..5,
        runs in proptest::collection::vec((0usize..41, any::<u64>()), 1..16),
    ) {
        let ways = WAYS[way_index];
        assert_all_payloads_agree(sets, ways, shift, &runs, &format!("{sets} sets x {ways} ways"));
    }

    /// `Vec<TreePlru>`'s bulk slices: same bytes out, same values and the
    /// same `Result` back from every truncation and byte change.
    #[test]
    fn plru_slices_match_the_element_loop(bits in proptest::collection::vec(any::<u64>(), 0..12)) {
        let mut w = SnapWriter::new();
        model_save_plru(&bits, &mut w);
        let bytes = w.into_bytes();
        let new = |b: &[u8]| decode::<Vec<TreePlru>>(b).map(|v| (encode(&v), Vec::new(), [v.len(); 4]));
        let model = |b: &[u8]| {
            let mut r = SnapReader::new(b);
            let v = model_load_plru(&mut r)?;
            if r.remaining() != 0 {
                return Err(SnapError::TrailingBytes);
            }
            let mut w = SnapWriter::new();
            model_save_plru(&v, &mut w);
            Ok((w.into_bytes(), Vec::new(), [v.len(); 4]))
        };
        prop_assert_eq!(new(&bytes), Ok((bytes.clone(), Vec::new(), [bits.len(); 4])));
        assert_agree_on_damage(&bytes, new, model, "PLRU slice");
    }
}
