//! The archive path against its byte-at-a-time models.
//!
//! `crc32` runs eight bytes per step and `to_bytes` / `from_bytes` fuse the
//! section CRC with the trailer hash into one pass. The forms they replaced
//! (a byte-at-a-time table CRC, a `content_hash` that concatenates every tag
//! and payload, a reader that copies before it checks) are kept here,
//! verbatim, as the reference: same values for every input, same bytes for
//! every section set, same error for every corruption.

use raccd_snap::{crc32, fnv1a64, SnapError, SnapReader, Snapshot, FORMAT_VERSION, MAGIC};

/// xorshift64*: the tests need bytes, not quality.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next() >> 32) as u8).collect()
    }
}

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

fn model_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    table
}

/// Byte-at-a-time table CRC-32, as `crc32` was.
fn model_crc32(bytes: &[u8]) -> u32 {
    let table = model_crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Byte-at-a-time FNV-1a-64, as `fnv1a64` was.
fn model_fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

type Sections = Vec<(String, Vec<u8>)>;

/// The concatenating content hash, as `Snapshot::content_hash` was.
fn model_content_hash(sections: &Sections) -> u64 {
    let mut bytes = Vec::new();
    for (tag, payload) in sections {
        bytes.extend_from_slice(tag.as_bytes());
        bytes.extend_from_slice(payload);
    }
    model_fnv1a64(&bytes)
}

/// Format v1 written the slow way: one CRC pass per payload, then a
/// concatenation and a hash pass over it.
fn model_to_bytes(sections: &Sections) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    for (tag, payload) in sections {
        out.extend_from_slice(&(tag.len() as u64).to_le_bytes());
        out.extend_from_slice(tag.as_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&model_crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out.extend_from_slice(&model_content_hash(sections).to_le_bytes());
    out
}

/// `Snapshot::from_bytes` as it was: copy each payload, CRC the copy, then
/// hash the concatenation of everything decoded.
fn model_from_bytes(bytes: &[u8]) -> Result<Sections, SnapError> {
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
    for _ in 0..nsections {
        let tag_len = r.len_prefix()?;
        let tag = String::from_utf8(r.bytes(tag_len)?.to_vec())
            .map_err(|_| SnapError::Invalid("section tag not UTF-8"))?;
        let payload_len = r.len_prefix()?;
        let crc = r.u32()?;
        let payload = r.bytes(payload_len)?.to_vec();
        if model_crc32(&payload) != crc {
            return Err(SnapError::BadCrc { tag });
        }
        sections.push((tag, payload));
    }
    let recorded = r.u64()?;
    if recorded != model_content_hash(&sections) {
        return Err(SnapError::BadHash);
    }
    if r.remaining() != 0 {
        return Err(SnapError::TrailingBytes);
    }
    Ok(sections)
}

fn snapshot_of(sections: &Sections) -> Snapshot {
    let mut s = Snapshot::new();
    for (tag, payload) in sections {
        s.put_raw(tag, payload.clone());
    }
    s
}

/// What `from_bytes` returned, in the model's terms (tags are unique in
/// every archive these tests feed it).
fn decoded(bytes: &[u8]) -> Result<Sections, SnapError> {
    let snap = Snapshot::from_bytes(bytes)?;
    Ok(snap
        .tags()
        .into_iter()
        .map(|tag| (tag.to_string(), snap.raw(tag).unwrap().to_vec()))
        .collect())
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

#[test]
fn crc32_equals_the_model_at_every_length_and_alignment() {
    let buf = Rng(0x5EED).bytes(80);
    for start in 0..8 {
        for len in 0..=64 {
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), model_crc32(s), "start {start} len {len}");
        }
    }
}

#[test]
fn crc32_equals_the_model_on_a_mebibyte() {
    let buf = Rng(7).bytes((1 << 20) + 5);
    assert_eq!(crc32(&buf), model_crc32(&buf));
    assert_eq!(crc32(&buf[3..]), model_crc32(&buf[3..]));
}

#[test]
fn known_vectors() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn fnv1a64_equals_the_model_at_every_length() {
    let buf = Rng(0xF00D).bytes(100);
    for len in 0..=buf.len() {
        assert_eq!(
            fnv1a64(&buf[..len]),
            model_fnv1a64(&buf[..len]),
            "len {len}"
        );
    }
}

// ---------------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------------

/// Section sets that walk the edges: none at all, empty tag, empty payload,
/// every payload length around the eight-byte step, a payload far longer
/// than any buffer heuristic, non-ASCII tags.
fn section_sets() -> Vec<Sections> {
    let mut rng = Rng(0xA11CE);
    let mut sets: Vec<Sections> = vec![
        vec![],
        vec![(String::new(), vec![])],
        vec![(String::new(), rng.bytes(9)), ("x".into(), vec![])],
        vec![("große/τάγ/標籤".into(), rng.bytes(100 * 1024 + 3))],
    ];
    sets.push(
        (1..=17)
            .map(|len| (format!("len/{len}"), rng.bytes(len)))
            .collect(),
    );
    for round in 0..8 {
        let n = (rng.next() % 6) as usize;
        sets.push(
            (0..n)
                .map(|i| {
                    let len = (rng.next() % 300) as usize;
                    (format!("r{round}/σ{i}"), rng.bytes(len))
                })
                .collect(),
        );
    }
    sets
}

#[test]
fn to_bytes_equals_the_model_writer_and_is_sized_exactly() {
    for sections in section_sets() {
        let snap = snapshot_of(&sections);
        let bytes = snap.to_bytes();
        assert_eq!(bytes, model_to_bytes(&sections));
        assert_eq!(bytes.capacity(), bytes.len(), "one allocation, no slack");
        assert_eq!(snap.content_hash(), model_content_hash(&sections));
        assert_eq!(decoded(&bytes), Ok(sections));
    }
}

#[test]
fn every_flip_and_every_truncation_fails_as_the_model_reader_does() {
    let mut rng = Rng(0xBAD);
    let sections: Sections = vec![
        ("a".into(), rng.bytes(5)),
        (String::new(), vec![]),
        ("τάγ".into(), rng.bytes(17)),
    ];
    let good = snapshot_of(&sections).to_bytes();
    assert_eq!(decoded(&good), Ok(sections));

    for cut in 0..good.len() {
        let got = decoded(&good[..cut]);
        assert!(got.is_err(), "cut {cut} decoded");
        assert_eq!(got, model_from_bytes(&good[..cut]), "cut {cut}");
    }
    let mut extended = good.clone();
    extended.push(0);
    assert_eq!(decoded(&extended), Err(SnapError::TrailingBytes));

    let mut seen = std::collections::HashSet::new();
    for at in 0..good.len() {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
            let mut bad = good.clone();
            bad[at] ^= mask;
            let got = decoded(&bad);
            assert!(got.is_err(), "flip {mask:#04x} at {at} decoded");
            assert_eq!(got, model_from_bytes(&bad), "flip {mask:#04x} at {at}");
            seen.insert(std::mem::discriminant(&got.unwrap_err()));
        }
    }
    // The sweep is not vacuous: magic, version, length, CRC, UTF-8 and
    // trailer damage each surfaced as their own error.
    assert!(seen.len() >= 6, "only {} error kinds seen", seen.len());
}

#[test]
fn crc_failure_names_the_section_and_wins_over_the_trailer() {
    let sections: Sections = vec![
        ("first".into(), vec![1; 40]),
        ("second".into(), vec![2; 40]),
    ];
    let good = snapshot_of(&sections).to_bytes();
    // Last payload byte of "second" sits just before the 8-byte trailer.
    let mut bad = good.clone();
    let at = bad.len() - 9;
    bad[at] ^= 1;
    assert_eq!(
        Snapshot::from_bytes(&bad),
        Err(SnapError::BadCrc {
            tag: "second".into()
        })
    );
    // A damaged trailer alone is BadHash; damaged trailer plus trailing
    // bytes is still BadHash (hash before length).
    let mut bad = good.clone();
    let at = bad.len() - 1;
    bad[at] ^= 1;
    assert_eq!(Snapshot::from_bytes(&bad), Err(SnapError::BadHash));
    bad.push(0);
    assert_eq!(Snapshot::from_bytes(&bad), Err(SnapError::BadHash));
}
