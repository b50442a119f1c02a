//! `Snap::save_slice` / `Snap::load_vec` overrides change how fast a run of
//! fixed-width values is written and read, never which bytes: every
//! sequence container must encode to exactly what the element loop (the
//! trait's default, spelled out here as the model) produces, decode back,
//! and reject every truncation with `Eof`.

use raccd_snap::{decode, encode, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;
use std::fmt::Debug;

/// Length prefix, then one `save` per element: the wire format of `Vec<T>`
/// and `VecDeque<T>`; without the prefix, of `[T; N]`.
fn element_loop<'a, T: Snap + 'a>(
    prefix: bool,
    vs: impl ExactSizeIterator<Item = &'a T>,
) -> Vec<u8> {
    let mut w = SnapWriter::new();
    if prefix {
        w.u64(vs.len() as u64);
    }
    for v in vs {
        v.save(&mut w);
    }
    w.into_bytes()
}

fn check<C: Snap + PartialEq + Debug>(value: C, model: Vec<u8>) {
    let bytes = encode(&value);
    assert_eq!(bytes, model, "{value:?}");
    assert_eq!(decode::<C>(&bytes).as_ref(), Ok(&value));
    for cut in 0..bytes.len() {
        assert_eq!(
            decode::<C>(&bytes[..cut]),
            Err(SnapError::Eof),
            "cut {cut} of {value:?}"
        );
    }
    let mut longer = bytes;
    longer.push(0);
    assert_eq!(decode::<C>(&longer), Err(SnapError::TrailingBytes));
}

fn check_vec<T: Snap + PartialEq + Debug + Clone>(vs: &[T]) {
    for n in [0, 1, vs.len()] {
        let vs = &vs[..n];
        check(vs.to_vec(), element_loop(true, vs.iter()));
    }
}

#[test]
fn integer_vectors_encode_as_the_element_loop() {
    check_vec(&[0u8, 1, 0x7f, 0x80, 0xff]);
    check_vec(&[0u16, 1, 0xbeef, u16::MAX]);
    check_vec(&[0u32, 1, 0xdead_beef, u32::MAX]);
    check_vec(&[0u64, 1, 0x0123_4567_89ab_cdef, u64::MAX]);
    check_vec(&[0u128, 1, u128::MAX - 7, u128::MAX]);
    check_vec(&[0i8, -1, i8::MIN, i8::MAX]);
    check_vec(&[0i16, -1, i16::MIN, i16::MAX]);
    check_vec(&[0i32, -42, i32::MIN, i32::MAX]);
    check_vec(&[0i64, -42, i64::MIN, i64::MAX]);
    check_vec(&[0usize, 1, 4096, usize::MAX]);
}

#[test]
fn float_vectors_keep_every_bit() {
    let nan = f64::from_bits(0x7FF8_0000_0000_1234);
    let vs = [0.0f64, -0.0, 1.5, f64::INFINITY, nan];
    let bytes = encode(&vs.to_vec());
    assert_eq!(bytes, element_loop(true, vs.iter()));
    let back: Vec<f64> = decode(&bytes).unwrap();
    let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back), bits(&vs));
    // Same bytes as the bit pattern written as an integer, which is what
    // the float impls did before they shared the integers' macro.
    assert_eq!(bytes, encode(&bits(&vs)));
    assert_eq!(encode(&1.5f32), encode(&1.5f32.to_bits()));
}

#[test]
fn deques_encode_as_the_element_loop_wrapped_or_not() {
    let flat = VecDeque::from([9u32, 8, 7]);
    check(flat.clone(), element_loop(true, flat.iter()));
    // Wrapped: front and back slices both non-empty.
    let mut wrapped = VecDeque::from([1u32, 2, 3, 4, 5]);
    for next in 6..64 {
        if !wrapped.as_slices().1.is_empty() {
            break;
        }
        wrapped.pop_front();
        wrapped.push_back(next);
    }
    assert!(!wrapped.as_slices().1.is_empty(), "deque does not wrap");
    check(wrapped.clone(), element_loop(true, wrapped.iter()));
    assert_eq!(encode(&wrapped), encode(&Vec::from(wrapped)));
}

#[test]
fn arrays_encode_as_the_element_loop_without_a_prefix() {
    let a = [7u64, 8, 9, u64::MAX];
    check(a, element_loop(false, a.iter()));
    check([0xabu8; 3], vec![0xab; 3]);
    check([(1u8, true), (2, false)], vec![1, 1, 2, 0]);
}

#[test]
fn element_loop_types_are_untouched() {
    let vs = vec![Some(3u16), None, Some(0)];
    check(vs.clone(), element_loop(true, vs.iter()));
    let vs = vec![String::from("κόσμε"), String::new()];
    check(vs.clone(), element_loop(true, vs.iter()));
}

#[test]
fn usize_overflow_is_still_invalid() {
    // A u64 that does not fit the host's usize is an invalid value, not a
    // truncated one; on a 64-bit host every u64 fits.
    let expect = |v: u64| usize::try_from(v).map_err(|_| SnapError::Invalid("usize overflow"));
    for v in [0, 1 << 31, 1 << 32, u64::MAX] {
        assert_eq!(decode::<usize>(&encode(&v)), expect(v));
        let vec = decode::<Vec<usize>>(&encode(&vec![7u64, v]));
        assert_eq!(vec, expect(v).map(|v| vec![7, v]));
    }
}

#[test]
fn bulk_loads_check_the_byte_count_before_they_allocate() {
    // 64 bytes of stream claiming 64 u64s: passes the one-byte-per-element
    // prefix guard, fails the bulk path's n * 8 <= remaining.
    let mut w = SnapWriter::new();
    w.u64(64);
    w.bytes(&[0; 64]);
    assert_eq!(decode::<Vec<u64>>(&w.into_bytes()), Err(SnapError::Eof));
    // A count whose byte size overflows usize is the same error, not a
    // wrapped small read.
    let stream = [0u8; 32];
    for n in [usize::MAX, usize::MAX / 8 + 1, (usize::MAX >> 4) + 3] {
        let mut r = SnapReader::new(&stream);
        assert_eq!(u64::load_vec(&mut r, n), Err(SnapError::Eof));
        assert_eq!(u128::load_vec(&mut r, n), Err(SnapError::Eof));
        assert_eq!(r.remaining(), 32, "a refused read consumes nothing");
    }
}
