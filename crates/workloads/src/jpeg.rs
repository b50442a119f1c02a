//! **JPEG** — "performs the decoding of JPEG images with fixed encoding of
//! 2x2 MCU size and YUV color" (Table II: 2992×2000 image).
//!
//! This is the paper's worst case for RaCCD: "the tasks have no input or
//! output annotations, … so RaCCD is unable to identify any non-coherent
//! blocks" (§II-D) — while PT still classifies the single-core-touched
//! coefficient/pixel pages as private.
//!
//! The decoder is a real (simplified-entropy) JPEG pipeline: per 16×16 MCU,
//! six 8×8 coefficient blocks (4 Y + subsampled U,V) are dequantised,
//! inverse-DCT'd, chroma-upsampled and converted YUV→RGB. We synthesise the
//! quantised coefficients directly (the role Huffman decoding plays in a
//! real bitstream — the substitution is documented in DESIGN.md §2).

use crate::reference;
use crate::scale::Scale;
use crate::util::write_slice;
use raccd_mem::{SimMemory, SplitMix64, VAddr};
use raccd_runtime::{Program, ProgramBuilder, Workload};

/// Quantisation table: flat-ish with frequency-growing steps.
fn quant(u: usize, v: usize) -> i32 {
    1 + 2 * (u + v) as i32
}

/// 8×8 inverse DCT (separable, f32) of dequantised coefficients.
fn idct8x8(coef: &[f32; 64]) -> [f32; 64] {
    let mut out = [0f32; 64];
    for x in 0..8 {
        for y in 0..8 {
            let mut s = 0f32;
            for u in 0..8 {
                for v in 0..8 {
                    let cu = if u == 0 {
                        std::f32::consts::FRAC_1_SQRT_2
                    } else {
                        1.0
                    };
                    let cv = if v == 0 {
                        std::f32::consts::FRAC_1_SQRT_2
                    } else {
                        1.0
                    };
                    s += cu
                        * cv
                        * coef[u * 8 + v]
                        * ((2 * x + 1) as f32 * u as f32 * std::f32::consts::PI / 16.0).cos()
                        * ((2 * y + 1) as f32 * v as f32 * std::f32::consts::PI / 16.0).cos();
                }
            }
            out[x * 8 + y] = s / 4.0;
        }
    }
    out
}

/// Decode one 8×8 block of quantised coefficients into spatial samples.
fn decode_block(q: &[i16]) -> [u8; 64] {
    let mut deq = [0f32; 64];
    for u in 0..8 {
        for v in 0..8 {
            deq[u * 8 + v] = (q[u * 8 + v] as i32 * quant(u, v)) as f32;
        }
    }
    let spatial = idct8x8(&deq);
    let mut out = [0u8; 64];
    for (i, &s) in spatial.iter().enumerate() {
        out[i] = (s + 128.0).clamp(0.0, 255.0) as u8;
    }
    out
}

/// Decode one MCU (4 Y blocks + U + V, 2×2 chroma subsampling) into a
/// 16×16 RGB tile (768 bytes, row-major, RGB interleaved).
fn decode_mcu(coeffs: &[i16]) -> Vec<u8> {
    assert_eq!(coeffs.len(), 6 * 64);
    let y_blocks: Vec<[u8; 64]> = (0..4)
        .map(|b| decode_block(&coeffs[b * 64..(b + 1) * 64]))
        .collect();
    let u_block = decode_block(&coeffs[4 * 64..5 * 64]);
    let v_block = decode_block(&coeffs[5 * 64..6 * 64]);

    let mut rgb = vec![0u8; 16 * 16 * 3];
    for py in 0..16usize {
        for px in 0..16usize {
            let yb = (py / 8) * 2 + px / 8;
            let y = y_blocks[yb][(py % 8) * 8 + (px % 8)] as f32;
            let u = u_block[(py / 2) * 8 + px / 2] as f32 - 128.0;
            let v = v_block[(py / 2) * 8 + px / 2] as f32 - 128.0;
            let r = (y + 1.402 * v).clamp(0.0, 255.0) as u8;
            let g = (y - 0.344136 * u - 0.714136 * v).clamp(0.0, 255.0) as u8;
            let bch = (y + 1.772 * u).clamp(0.0, 255.0) as u8;
            let o = (py * 16 + px) * 3;
            rgb[o] = r;
            rgb[o + 1] = g;
            rgb[o + 2] = bch;
        }
    }
    rgb
}

/// The JPEG-decode benchmark.
#[derive(Debug)]
pub struct Jpeg {
    /// MCU columns (image width = 16·mcus_x).
    pub mcus_x: u64,
    /// MCU rows (image height = 16·mcus_y).
    pub mcus_y: u64,
    /// RNG seed for deterministic input data.
    pub seed: u64,
}

/// Coefficient bytes per MCU: 6 blocks × 64 coefficients × 2 bytes.
const MCU_COEF_BYTES: u64 = 6 * 64 * 2;
/// RGB bytes per MCU: 16×16×3.
const MCU_RGB_BYTES: u64 = 16 * 16 * 3;

impl Jpeg {
    /// Configure for a scale (Paper: 2992×2000 → 187×125 MCUs).
    pub fn new(scale: Scale) -> Self {
        Jpeg {
            mcus_x: scale.pick(4, 32, 187),
            mcus_y: scale.pick(4, 32, 125),
            seed: 0x01BE6,
        }
    }

    /// Synthesised quantised coefficients for one MCU: energy compaction
    /// (large DC, decaying AC) like real quantised DCT data.
    fn mcu_coeffs(&self, mcu: u64) -> Vec<i16> {
        let mut rng = SplitMix64::new(self.seed.wrapping_add(mcu * 6007));
        let mut out = Vec::with_capacity(6 * 64);
        for _block in 0..6 {
            for u in 0..8u32 {
                for v in 0..8u32 {
                    let mag = 64i32 >> (u + v).min(6);
                    let val = if mag > 0 {
                        (rng.next_below(2 * mag as u64 + 1) as i32) - mag
                    } else {
                        0
                    };
                    out.push(val as i16);
                }
            }
        }
        out
    }

    fn total_mcus(&self) -> u64 {
        self.mcus_x * self.mcus_y
    }

    /// Host reference: every MCU decoded, in MCU order.
    fn reference(&self) -> Vec<u8> {
        let mut image = Vec::with_capacity((self.total_mcus() * MCU_RGB_BYTES) as usize);
        for m in 0..self.total_mcus() {
            image.extend(decode_mcu(&self.mcu_coeffs(m)));
        }
        image
    }
}

impl Workload for Jpeg {
    fn name(&self) -> &str {
        "JPEG"
    }

    fn problem(&self) -> String {
        format!(
            "{} x {} pixel JPEG-like image (2x2 MCU, YUV)",
            self.mcus_x * 16,
            self.mcus_y * 16
        )
    }

    fn build(&self) -> Program {
        let mut b = ProgramBuilder::new();
        let coeffs = b.alloc("coeffs", self.total_mcus() * MCU_COEF_BYTES);
        let image = b.alloc("image", self.total_mcus() * MCU_RGB_BYTES);

        for m in 0..self.total_mcus() {
            let at = coeffs.start.offset(m * MCU_COEF_BYTES);
            write_slice(b.mem(), at, &self.mcu_coeffs(m), i16::to_le_bytes);
        }

        // One task per MCU row — with NO dependence annotations, like the
        // paper's JPEG port. They are all immediately ready (and race-free
        // by construction: disjoint outputs).
        let mcus_x = self.mcus_x;
        for row in 0..self.mcus_y {
            let coeff_base = coeffs.start.offset(row * mcus_x * MCU_COEF_BYTES);
            let image_base = image.start.offset(row * mcus_x * MCU_RGB_BYTES);
            b.task("jpeg_row", vec![], move |ctx| {
                for mx in 0..mcus_x {
                    let cb: VAddr = coeff_base.offset(mx * MCU_COEF_BYTES);
                    let mut q = vec![0i16; 6 * 64];
                    for (i, qv) in q.iter_mut().enumerate() {
                        *qv = ctx.read_u16(cb.offset(i as u64 * 2)) as i16;
                    }
                    let rgb = decode_mcu(&q);
                    let ob = image_base.offset(mx * MCU_RGB_BYTES);
                    for (i, chunk) in rgb.chunks_exact(4).enumerate() {
                        ctx.write_u32(
                            ob.offset(i as u64 * 4),
                            u32::from_le_bytes(chunk.try_into().unwrap()),
                        );
                    }
                }
            });
        }
        b.finish()
    }

    fn verify(&self, mem: &SimMemory) -> Result<(), String> {
        let expect = reference::shared(self, Jpeg::reference);
        let image_base = mem.allocations()[1].1.start;
        for (m, want) in expect.chunks_exact(MCU_RGB_BYTES as usize).enumerate() {
            let at = image_base.offset(m as u64 * MCU_RGB_BYTES);
            let got = mem.bytes(at, MCU_RGB_BYTES as usize);
            if got != want {
                return Err(format!("MCU {m}: pixel mismatch"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idct_of_dc_only_is_flat() {
        let mut coef = [0f32; 64];
        coef[0] = 8.0; // DC
        let out = idct8x8(&coef);
        let first = out[0];
        assert!(out.iter().all(|&x| (x - first).abs() < 1e-4));
        // DC 8 → spatial value 8·(1/√2)·(1/√2)/4 = 1.
        assert!((first - 1.0).abs() < 1e-4);
    }

    #[test]
    fn idct_parseval_energy_preserved() {
        // Orthonormal DCT: spatial energy equals coefficient energy.
        let mut coef = [0f32; 64];
        let mut rng = SplitMix64::new(3);
        for c in coef.iter_mut() {
            *c = rng.next_f32() * 16.0 - 8.0;
        }
        let out = idct8x8(&coef);
        let e_in: f32 = coef.iter().map(|x| x * x).sum();
        let e_out: f32 = out.iter().map(|x| x * x).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-3, "{e_in} vs {e_out}");
    }

    #[test]
    fn decode_block_clamps_to_u8() {
        let q = [i16::MAX / 64; 64];
        let out = decode_block(&q);
        assert!(out
            .iter()
            .all(|&p| p == 0 || p == 255 || (1..255).contains(&p)));
    }

    #[test]
    fn functional_run_matches_reference_pixels() {
        let w = Jpeg::new(Scale::Test);
        let mut p = w.build();
        p.run_functional();
        w.verify(&p.mem).expect("exact pixels");
    }

    #[test]
    fn no_annotations_all_tasks_ready() {
        // The defining property of the JPEG port (§II-D).
        let w = Jpeg::new(Scale::Test);
        let p = w.build();
        assert_eq!(p.graph.len() as u64, w.mcus_y);
        assert_eq!(p.graph.edges(), 0);
        assert_eq!(p.graph.deps(0).len(), 0, "no dependence annotations");
    }
}
