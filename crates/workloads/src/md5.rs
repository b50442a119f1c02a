//! **MD5** — "cryptographically hashes random input buffers" (Table II:
//! 128 buffers of 512 KB). Streaming reads with almost no reuse: LLC
//! accesses are dominated by compulsory misses, so neither directory
//! capacity nor coherence deactivation moves the needle much (§V-A3).
//!
//! The digest implementation is a from-scratch RFC 1321 MD5, validated
//! against the RFC's official test vectors.

use crate::reference;
use crate::scale::Scale;
use raccd_mem::addr::VRange;
use raccd_mem::{SimMemory, SplitMix64};
use raccd_runtime::{Dep, Program, ProgramBuilder, Workload};

/// Per-round shift amounts (RFC 1321).
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants `K[i] = floor(2^32 · |sin(i+1)|)` (RFC 1321).
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, //
    0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501, //
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, //
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, //
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, //
    0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8, //
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, //
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, //
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, //
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, //
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, //
    0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, //
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, //
    0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1, //
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, //
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// One 64-byte block into the running state: the four round groups, each
/// with its own mixing function and its fixed walk over the 16 words.
fn compress(state: &mut [u32; 4], block: &[u8]) {
    let m: [u32; 16] =
        std::array::from_fn(|w| u32::from_le_bytes(block[w * 4..w * 4 + 4].try_into().unwrap()));
    let [mut a, mut b, mut c, mut d] = *state;
    macro_rules! group {
        ($first:expr, |$i:ident| $word:expr, $mix:expr) => {
            for $i in $first..$first + 16 {
                let sum = a
                    .wrapping_add($mix)
                    .wrapping_add(K[$i])
                    .wrapping_add(m[$word % 16]);
                (a, d, c, b) = (d, c, b, b.wrapping_add(sum.rotate_left(S[$i])));
            }
        };
    }
    group!(0, |i| i, (b & c) | (!b & d));
    group!(16, |i| 5 * i + 1, (d & b) | (!d & c));
    group!(32, |i| 3 * i + 5, b ^ c ^ d);
    group!(48, |i| 7 * i, c ^ (b | !d));
    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// MD5 of a byte slice (RFC 1321), streamed block by block.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut state = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut state, block);
    }
    // Tail: remainder ‖ 0x80 ‖ zeros ‖ bit-length (LE, 64-bit), which is
    // one block, or two when fewer than nine bytes are left in the first.
    let rest = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let end = if rest.len() < 56 { 64 } else { 128 };
    tail[end - 8..end].copy_from_slice(&(data.len() as u64).wrapping_mul(8).to_le_bytes());
    for block in tail[..end].chunks_exact(64) {
        compress(&mut state, block);
    }
    let mut out = [0u8; 16];
    for (o, v) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// The MD5 benchmark: one task per buffer.
#[derive(Debug)]
pub struct Md5Bench {
    /// Buffers to hash.
    pub buffers: u64,
    /// Bytes per buffer.
    pub buf_len: u64,
    /// RNG seed for deterministic input data.
    pub seed: u64,
}

impl Md5Bench {
    /// Configure for a scale (Paper: 128 buffers of 512 KB).
    pub fn new(scale: Scale) -> Self {
        Md5Bench {
            buffers: scale.pick(8, 64, 128),
            buf_len: scale.pick(4 * 1024, 64 * 1024, 512 * 1024),
            seed: 0x3D5,
        }
    }

    fn buffer(&self, i: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(self.seed.wrapping_add(i * 7919));
        (0..self.buf_len).map(|_| rng.next_u32() as u8).collect()
    }

    /// Host reference: the digest of every buffer.
    fn reference(&self) -> Vec<[u8; 16]> {
        (0..self.buffers).map(|i| md5(&self.buffer(i))).collect()
    }
}

impl Workload for Md5Bench {
    fn name(&self) -> &str {
        "MD5"
    }

    fn problem(&self) -> String {
        format!(
            "{} buffers of {}KB to hash",
            self.buffers,
            self.buf_len / 1024
        )
    }

    fn build(&self) -> Program {
        let mut b = ProgramBuilder::new();
        let data = b.alloc("buffers", self.buffers * self.buf_len);
        // One cache line per digest: 16 digest bytes padded to 64 so
        // independent tasks never false-share a block (and the TDG, whose
        // region runs begin and end on block boundaries, sees them as
        // disjoint).
        let digests = b.alloc("digests", self.buffers * 64);
        for i in 0..self.buffers {
            b.mem()
                .write_bytes(data.start.offset(i * self.buf_len), &self.buffer(i));
        }

        let buf_len = self.buf_len;
        for i in 0..self.buffers {
            let buf = VRange::new(data.start.offset(i * buf_len), buf_len);
            let dig = VRange::new(digests.start.offset(i * 64), 16);
            b.task("md5", vec![Dep::input(buf), Dep::output(dig)], move |ctx| {
                // Stream the buffer in (traced word reads), hash, write
                // the digest out.
                let mut bytes = Vec::with_capacity(buf_len as usize);
                let words = buf_len / 8;
                for w in 0..words {
                    let v = ctx.read_u64(buf.start.offset(w * 8));
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                for o in words * 8..buf_len {
                    bytes.push(ctx.read_u8(buf.start.offset(o)));
                }
                let d = md5(&bytes);
                for (j, chunk) in d.chunks_exact(4).enumerate() {
                    ctx.write_u32(
                        dig.start.offset(j as u64 * 4),
                        u32::from_le_bytes(chunk.try_into().unwrap()),
                    );
                }
            });
        }
        b.finish()
    }

    fn verify(&self, mem: &SimMemory) -> Result<(), String> {
        let expect = reference::shared(self, Md5Bench::reference);
        let base = mem.allocations()[1].1.start;
        for (i, want) in expect.iter().enumerate() {
            let got = mem.bytes(base.offset(i as u64 * 64), 16);
            if got != want {
                return Err(format!("buffer {i}: digest mismatch"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: [u8; 16]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc1321_test_vectors() {
        assert_eq!(hex(md5(b"")), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hex(md5(b"a")), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(hex(md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            hex(md5(b"message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            hex(md5(b"abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            hex(md5(
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
            )),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            hex(md5(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            )),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    #[test]
    fn k_is_the_sine_table() {
        for (i, &k) in K.iter().enumerate() {
            let want = ((i as f64 + 1.0).sin().abs() * 4294967296.0) as u32;
            assert_eq!(k, want, "K[{i}]");
        }
    }

    /// Digests of `[0xAB; len]` around the 56-byte padding boundary (one
    /// tail block or two), at block multiples and at bench buffer size;
    /// the expected values are `hashlib.md5(b"\xab" * len).hexdigest()`.
    #[test]
    fn padding_boundaries() {
        let pinned = [
            (0, "d41d8cd98f00b204e9800998ecf8427e"),
            (55, "07be93c8d206e16b64469e97c3587951"),
            (56, "9d555cfe0b8ae686838fbe4c5067f494"),
            (57, "542eb2ad9912857953231cb06f02cb2c"),
            (63, "3a5a0e910bbb3736b1156774a444a8b8"),
            (64, "5bb6f6136cad3c71da7caae9a81b6492"),
            (65, "f8a1e899d5636d0a18afe718664a5ff3"),
            (119, "069211ad91a5370a5372815260b79262"),
            (120, "fb0e099d4ca256d32b78f7fb20defc80"),
            (127, "bd03a6edc96732bf48cd11fc7a6d2e15"),
            (128, "745aba4a32bb14875786154650fd4606"),
            (65536, "b6936734ef093dabc4e17f0c29fa4718"),
        ];
        for (len, want) in pinned {
            assert_eq!(hex(md5(&vec![0xAB; len])), want, "len {len}");
        }
    }

    #[test]
    fn functional_run_matches_digests() {
        let w = Md5Bench::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("digests match");
    }

    #[test]
    fn all_tasks_independent_streaming() {
        let w = Md5Bench::new(Scale::Test);
        let p = w.build();
        assert_eq!(p.graph.len() as u64, w.buffers);
        assert_eq!(p.graph.edges(), 0, "buffers are independent");
    }
}
