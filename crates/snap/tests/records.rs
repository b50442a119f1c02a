//! `snap_record!` / `snap_enum!`: the declaration is the wire layout.
//!
//! A record's bytes are its listed fields, in listed order (not declaration
//! order), each through its own `Snap`; an enum's are its tag byte then the
//! variant's fields. Every malformed input is a typed error: an unknown
//! tag and a failed `where` clause are `Invalid` with the declared label,
//! every truncation is `Eof`.

use raccd_snap::{decode, encode, snap_enum, snap_record, Snap, SnapError, SnapWriter};

/// Declared in one order, listed (and so saved) in another.
#[derive(Clone, Debug, PartialEq)]
struct Span {
    hits: Vec<u16>,
    start: u64,
    open: bool,
    name: String,
}
snap_record!(Span { start, name, hits, open } where |s| s.start != 13, "unlucky span");

#[derive(Clone, Debug, PartialEq)]
enum Probe {
    Idle,
    Fill { core: usize, span: Span },
    Evict { way: u8 },
}
snap_enum!(Probe, "probe tag" {
    0 => Idle,
    // The tags are the format, not the declaration order.
    7 => Evict { way },
    2 => Fill { core, span },
});

fn span() -> Span {
    Span {
        hits: vec![3, 0xbeef],
        start: 0x0102_0304_0506_0708,
        open: true,
        name: "κ".into(),
    }
}

fn probes() -> [Probe; 3] {
    [
        Probe::Idle,
        Probe::Fill {
            core: 5,
            span: span(),
        },
        Probe::Evict { way: 9 },
    ]
}

#[test]
fn record_bytes_are_the_listed_fields_in_listed_order() {
    let s = span();
    let mut w = SnapWriter::new();
    s.start.save(&mut w);
    s.name.save(&mut w);
    s.hits.save(&mut w);
    s.open.save(&mut w);
    let by_hand = w.into_bytes();
    assert_eq!(encode(&s), by_hand);
    assert_eq!(
        by_hand,
        [
            &[8, 7, 6, 5, 4, 3, 2, 1][..],               // start
            &[2, 0, 0, 0, 0, 0, 0, 0, 0xce, 0xba],       // name: length, UTF-8
            &[2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0xef, 0xbe], // hits: length, u16s
            &[1],                                        // open
        ]
        .concat()
    );
    assert_eq!(decode::<Span>(&by_hand), Ok(s));
}

#[test]
fn enum_bytes_are_the_tag_then_the_fields() {
    let [idle, fill, evict] = probes();
    assert_eq!(encode(&idle), [0]);
    assert_eq!(encode(&evict), [7, 9]);
    let mut w = SnapWriter::new();
    w.u8(2);
    5usize.save(&mut w);
    span().save(&mut w);
    assert_eq!(encode(&fill), w.into_bytes());
}

#[test]
fn unit_and_struct_variants_round_trip() {
    for p in probes() {
        let bytes = encode(&p);
        let back: Probe = decode(&bytes).expect("decodes");
        assert_eq!(back, p);
        assert_eq!(encode(&back), bytes, "re-encode is byte-identical");
    }
}

#[test]
fn unknown_tag_and_failed_invariant_are_invalid_with_their_label() {
    for tag in (0..=255u8).filter(|t| ![0, 2, 7].contains(t)) {
        assert_eq!(
            decode::<Probe>(&[tag, 0, 0]),
            Err(SnapError::Invalid("probe tag")),
            "tag {tag}"
        );
    }
    let unlucky = Span {
        start: 13,
        ..span()
    };
    // `save` has no opinion; `load` enforces the clause, also when the
    // record is a field of something else.
    let bytes = encode(&unlucky);
    assert_eq!(
        decode::<Span>(&bytes),
        Err(SnapError::Invalid("unlucky span"))
    );
    let nested = encode(&Probe::Fill {
        core: 0,
        span: unlucky,
    });
    assert_eq!(
        decode::<Probe>(&nested),
        Err(SnapError::Invalid("unlucky span"))
    );
}

#[test]
fn every_truncation_is_eof() {
    fn check<T: Snap + std::fmt::Debug + PartialEq>(v: &T) {
        let bytes = encode(v);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode::<T>(&bytes[..cut]),
                Err(SnapError::Eof),
                "{v:?} cut at {cut}"
            );
        }
    }
    check(&span());
    probes().iter().for_each(check);
}
