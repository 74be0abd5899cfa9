//! A Motion-JPEG-style intra-frame tile codec.
//!
//! "Cameras can be equipped with one or more compression devices. ...
//! Currently, both raw video and motion JPEG are supported." (§2.1)
//!
//! The codec is the real JPEG pipeline at tile granularity: level shift,
//! 8×8 forward DCT, quantization with the standard luminance matrix
//! scaled by a 1–100 quality factor, zigzag scan, and run-length coding
//! of the coefficients. It is intra-frame only (every tile stands alone),
//! exactly the property the paper relies on when it credits AAL5 with
//! "protection against rendering or decompressing faulty tiles": a lost
//! tile damages 64 pixels, not a stream.

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::tile::{Tile, TILE_DIM, TILE_PIXELS};

/// The standard JPEG luminance quantization matrix (Annex K).
#[rustfmt::skip]
const QUANT_BASE: [u16; TILE_PIXELS] = [
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Zigzag scan order for an 8×8 block.
#[rustfmt::skip]
const ZIGZAG: [usize; TILE_PIXELS] = [
     0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// The scan position of each coefficient: [`ZIGZAG`] inverted.
const UNZIGZAG: [u8; TILE_PIXELS] = {
    let mut inv = [0u8; TILE_PIXELS];
    let mut pos = 0;
    while pos < TILE_PIXELS {
        inv[ZIGZAG[pos]] = pos as u8;
        pos += 1;
    }
    inv
};

/// Errors from [`decode_tile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The bitstream ended mid-token.
    Truncated,
    /// More than 64 coefficients were coded.
    TooManyCoefficients,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed tile truncated"),
            CodecError::TooManyCoefficients => write!(f, "compressed tile overlong"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Builds the quantization matrix for a JPEG-convention quality factor
/// in 1..=100 (higher is better).
pub fn quant_matrix(quality: u8) -> [u16; TILE_PIXELS] {
    let q = quality.clamp(1, 100) as u32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut m = [0u16; TILE_PIXELS];
    for (i, &base) in QUANT_BASE.iter().enumerate() {
        m[i] = (((base as u32 * scale) + 50) / 100).clamp(1, 255) as u16;
    }
    m
}

/// Everything the codec would otherwise recompute per tile: the DCT
/// basis, its orthonormal scale factors, and the quantiser of every
/// quality. Built once per process, on first use.
struct Tables {
    /// `cos(π/8 · (x + ½) · k)` as `basis_xk[x][k]` …
    basis_xk: [[f32; TILE_DIM]; TILE_DIM],
    /// … and transposed, `basis_kx[k][x]`: each pass reads the layout
    /// whose inner index is the one its eight outputs run over.
    basis_kx: [[f32; TILE_DIM]; TILE_DIM],
    /// `√(1/8)` for k = 0, `√(2/8)` otherwise.
    scale: [f32; TILE_DIM],
    /// `quant[q - 1]` is [`quant_matrix`]`(q)` as the `f32` divisors and
    /// multipliers the coder uses.
    quant: [[f32; TILE_PIXELS]; 100],
}

impl Tables {
    fn get() -> &'static Tables {
        static TABLES: OnceLock<Tables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let n = TILE_DIM as f32;
            let mut t = Tables {
                basis_xk: [[0.0; TILE_DIM]; TILE_DIM],
                basis_kx: [[0.0; TILE_DIM]; TILE_DIM],
                scale: [(2.0 / n).sqrt(); TILE_DIM],
                quant: [[0.0; TILE_PIXELS]; 100],
            };
            t.scale[0] = (1.0 / n).sqrt();
            for x in 0..TILE_DIM {
                for k in 0..TILE_DIM {
                    let c = ((std::f32::consts::PI / n) * (x as f32 + 0.5) * k as f32).cos();
                    t.basis_xk[x][k] = c;
                    t.basis_kx[k][x] = c;
                }
            }
            for (q, row) in t.quant.iter_mut().enumerate() {
                for (f, v) in row.iter_mut().zip(quant_matrix(q as u8 + 1)) {
                    *f = v as f32;
                }
            }
            t
        })
    }

    fn quant(&self, quality: u8) -> &[f32; TILE_PIXELS] {
        &self.quant[quality.clamp(1, 100) as usize - 1]
    }
}

/// `acc[i] += v[i] * w` over the eight lanes of one DCT pass. Every
/// lane is its own running sum, so the compiler may vectorize the loop
/// without reassociating any of them.
#[inline(always)]
fn axpy(acc: &mut [f32; TILE_DIM], v: &[f32], w: f32) {
    for (a, &v) in acc.iter_mut().zip(&v[..TILE_DIM]) {
        *a += v * w;
    }
}

/// Separable 8×8 forward DCT-II with orthonormal scaling. Each output is
/// `scale[k] · Σ sample · basis`, summed in sample order.
fn fdct(t: &Tables, block: &[f32; TILE_PIXELS]) -> [f32; TILE_PIXELS] {
    let mut tmp = [0f32; TILE_PIXELS];
    let mut out = [0f32; TILE_PIXELS];
    // Rows: the eight lanes are the frequencies k of one row.
    for (row, dst) in block
        .chunks_exact(TILE_DIM)
        .zip(tmp.chunks_exact_mut(TILE_DIM))
    {
        let mut acc = [0f32; TILE_DIM];
        for (x, &sample) in row.iter().enumerate() {
            axpy(&mut acc, &t.basis_xk[x], sample);
        }
        for ((d, a), s) in dst.iter_mut().zip(acc).zip(t.scale) {
            *d = s * a;
        }
    }
    // Columns: the eight lanes are the columns c of one frequency k.
    for (k, dst) in out.chunks_exact_mut(TILE_DIM).enumerate() {
        let mut acc = [0f32; TILE_DIM];
        for (y, row) in tmp.chunks_exact(TILE_DIM).enumerate() {
            axpy(&mut acc, row, t.basis_xk[y][k]);
        }
        for (d, a) in dst.iter_mut().zip(acc) {
            *d = t.scale[k] * a;
        }
    }
    out
}

/// Separable 8×8 inverse DCT (DCT-III), the inverse of [`fdct`]. Each
/// output is `Σ (scale[k] · coefficient) · basis`, summed in k order.
fn idct(t: &Tables, block: &[f32; TILE_PIXELS]) -> [f32; TILE_PIXELS] {
    let mut scaled = *block;
    for (row, s) in scaled.chunks_exact_mut(TILE_DIM).zip(t.scale) {
        row.iter_mut().for_each(|c| *c *= s);
    }
    let mut tmp = [0f32; TILE_PIXELS];
    let mut out = [0f32; TILE_PIXELS];
    // Columns: the eight lanes are the columns c of one output row y.
    for (y, dst) in tmp.chunks_exact_mut(TILE_DIM).enumerate() {
        let mut acc = [0f32; TILE_DIM];
        for (k, row) in scaled.chunks_exact(TILE_DIM).enumerate() {
            axpy(&mut acc, row, t.basis_xk[y][k]);
        }
        dst.copy_from_slice(&acc);
    }
    // Rows: the eight lanes are the samples x of one row.
    for (row, dst) in tmp
        .chunks_exact(TILE_DIM)
        .zip(out.chunks_exact_mut(TILE_DIM))
    {
        let mut acc = [0f32; TILE_DIM];
        for (k, &c) in row.iter().enumerate() {
            axpy(&mut acc, &t.basis_kx[k], t.scale[k] * c);
        }
        dst.copy_from_slice(&acc);
    }
    out
}

/// `v.round()` — half away from zero — for `|v| ≤ 2²²`, without the
/// libm call and without a float-to-int cast (whose saturation checks
/// keep a loop of them scalar). Adding 1.5 × 2²³ leaves the integer
/// nearest `v`, ties to even, in the sum's low mantissa bits; the
/// remainder against it is exact, and says when a tie went the other
/// way. Equal to `f32::round` bit for bit on that range.
#[inline(always)]
fn round_half_away(v: f32) -> i32 {
    const MAGIC: f32 = 12_582_912.0;
    debug_assert!(v.abs() <= 4_194_304.0, "{v} out of range");
    let even = (v + MAGIC).to_bits() as i32 - MAGIC.to_bits() as i32;
    let rem = v - even as f32;
    even + (rem >= 0.5 && v > 0.0) as i32 - (rem <= -0.5 && v < 0.0) as i32
}

/// Compresses one tile of pixels at the given quality.
///
/// The bitstream is a sequence of `(run, level)` tokens: one byte of
/// zero-run length followed by a big-endian `i16` level, terminated by
/// the end-of-block byte `0xFF`.
pub fn encode_tile(pixels: &[u8; TILE_PIXELS], quality: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    encode_tile_into(pixels, quality, &mut out);
    out
}

/// [`encode_tile`], appending the bitstream to `out` — the zero-copy
/// camera path encodes straight into the leased frame buffer a tile
/// frame is being assembled in, so compression allocates nothing. A
/// tile this thread has coded before at the same quantiser is copied
/// from its encode cache instead of coded again, to the same bytes.
pub fn encode_tile_into(pixels: &[u8; TILE_PIXELS], quality: u8, out: &mut Vec<u8>) {
    encode_tile_from(pixels, TILE_DIM, 0, 0, quality, out);
}

/// A thread's encode cache is `1 << CACHE_BITS` [`Slot`]s: 384 KiB.
const CACHE_BITS: u32 = 11;
/// The longest bitstream a slot keeps: forty-one tokens and the end of
/// block, which holds the sharpest edge a gradient or a test card
/// draws. A tile that codes longer (noise) is coded every time.
const SLOT_TOKENS: usize = 126;

/// One remembered coding: the whole input in one cache line, the bytes
/// it produced in the next two (a short coding ends in the first of
/// them).
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Slot {
    /// The tile's eight rows, each as one little-endian word.
    rows: [u64; TILE_DIM],
    /// The quality after `clamp(1, 100)`, i.e. the quantiser; 0 marks a
    /// slot never filled.
    quality: u8,
    len: u8,
    tokens: [u8; SLOT_TOKENS],
}

thread_local! {
    /// What this thread has coded, by content. Tiles are independent
    /// (§2.1) and a city's cameras show few distinct ones, so most are
    /// coded once and copied afterwards. Direct-mapped and fixed-size:
    /// a colliding tile evicts, nothing grows. Per thread because
    /// shards are threads that share nothing; empty until the first
    /// compressed tile, so a run without one never allocates it.
    static CACHE: RefCell<Vec<Slot>> = const { RefCell::new(Vec::new()) };
}

/// Where in [`CACHE`] a coding of these rows at this quantiser lives.
fn slot_of(quality: u8, rows: &[u64; TILE_DIM]) -> usize {
    let hash = rows.iter().fold(quality as u64, |h, &row| {
        (h.rotate_left(5) ^ row).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    (hash >> (64 - CACHE_BITS)) as usize
}

/// [`encode_tile_into`] for the tile at tile-grid position (tx, ty) of a
/// `width`-pixel-wide image, read where it lies ([`Tile::from_image`]
/// has the geometry and the panics).
///
/// The output is [`code_tile`]'s, byte for byte: a remembered coding is
/// reused only when the quantiser and all 64 pixels are the ones it was
/// made from — the hash only picks the slot to look in.
pub(crate) fn encode_tile_from(
    image: &[u8],
    width: usize,
    tx: usize,
    ty: usize,
    quality: u8,
    out: &mut Vec<u8>,
) {
    let quality = quality.clamp(1, 100);
    let rows: [u64; TILE_DIM] = std::array::from_fn(|r| {
        let at = (ty * TILE_DIM + r) * width + tx * TILE_DIM;
        u64::from_le_bytes(image[at..at + TILE_DIM].try_into().expect("eight pixels"))
    });
    CACHE.with_borrow_mut(|cache| {
        if cache.is_empty() {
            let empty = Slot {
                rows: [0; TILE_DIM],
                quality: 0,
                len: 0,
                tokens: [0; SLOT_TOKENS],
            };
            cache.resize(1 << CACHE_BITS, empty);
        }
        let slot = &mut cache[slot_of(quality, &rows)];
        if slot.quality == quality && slot.rows == rows {
            out.extend_from_slice(&slot.tokens[..slot.len as usize]);
            return;
        }
        let start = out.len();
        code_tile(&Tile::from_image(image, width, tx, ty).pixels, quality, out);
        let coded = &out[start..];
        if coded.len() <= SLOT_TOKENS {
            slot.rows = rows;
            slot.tokens[..coded.len()].copy_from_slice(coded);
            slot.len = coded.len() as u8;
            slot.quality = quality;
        }
    })
}

/// The coder itself — level shift, forward DCT, quantise, zigzag,
/// run-length — appending the bitstream to `out`.
fn code_tile(pixels: &[u8; TILE_PIXELS], quality: u8, out: &mut Vec<u8>) {
    let t = Tables::get();
    let mut block = [0f32; TILE_PIXELS];
    for (b, &p) in block.iter_mut().zip(pixels.iter()) {
        *b = p as f32 - 128.0;
    }
    let coeffs = fdct(t, &block);
    // Clamping to the i16 range first makes the cast below the
    // saturating one `round() as i16` was.
    let mut levels = [0i16; TILE_PIXELS];
    for ((l, c), q) in levels.iter_mut().zip(coeffs).zip(t.quant(quality)) {
        *l = round_half_away((c / q).clamp(i16::MIN as f32, i16::MAX as f32)) as i16;
    }
    // Most levels are zero: find the others four at a time, note where
    // each falls in the scan, and emit tokens for those positions only.
    let mut coded: u64 = 0; // bit p: the level at zigzag position p is non-zero
    for (group, at) in levels.chunks_exact(4).zip((0..).step_by(4)) {
        if group != [0; 4] {
            for (&level, i) in group.iter().zip(at..) {
                coded |= u64::from(level != 0) << UNZIGZAG[i];
            }
        }
    }
    let mut tokens = [0u8; 3 * TILE_PIXELS + 1];
    let mut len = 0;
    let mut next = 0; // first scan position not yet accounted for
    while coded != 0 {
        let pos = coded.trailing_zeros() as usize;
        coded &= coded - 1;
        tokens[len] = (pos - next) as u8; // the zero run before it
        tokens[len + 1..len + 3].copy_from_slice(&levels[ZIGZAG[pos]].to_be_bytes());
        len += 3;
        next = pos + 1;
    }
    tokens[len] = 0xFF; // end of block
    out.extend_from_slice(&tokens[..=len]);
}

/// Walks a tile's token stream, handing each `(zigzag position, level)`
/// to `coefficient` — the one definition of a well-formed bitstream.
fn parse_tokens(data: &[u8], mut coefficient: impl FnMut(usize, i16)) -> Result<(), CodecError> {
    let mut pos = 0usize; // position in zigzag order
    let mut i = 0usize;
    loop {
        let Some(&run) = data.get(i) else {
            return Err(CodecError::Truncated);
        };
        if run == 0xFF {
            return Ok(());
        }
        if i + 3 > data.len() {
            return Err(CodecError::Truncated);
        }
        let level = i16::from_be_bytes([data[i + 1], data[i + 2]]);
        i += 3;
        pos += run as usize;
        if pos >= TILE_PIXELS {
            return Err(CodecError::TooManyCoefficients);
        }
        coefficient(pos, level);
        pos += 1;
    }
}

/// Checks that `data` is a bitstream [`decode_tile`] would accept,
/// without reconstructing a pixel — all a display with no framebuffer
/// needs to know about a compressed tile.
pub fn validate_tile(data: &[u8]) -> Result<(), CodecError> {
    parse_tokens(data, |_, _| {})
}

/// Decompresses a tile produced by [`encode_tile`] at the same quality.
pub fn decode_tile(data: &[u8], quality: u8) -> Result<[u8; TILE_PIXELS], CodecError> {
    let t = Tables::get();
    let quant = t.quant(quality);
    let mut coeffs = [0f32; TILE_PIXELS];
    parse_tokens(data, |pos, level| {
        let zz = ZIGZAG[pos];
        coeffs[zz] = level as f32 * quant[zz];
    })?;
    let spatial = idct(t, &coeffs);
    let mut pixels = [0u8; TILE_PIXELS];
    for (p, &s) in pixels.iter_mut().zip(spatial.iter()) {
        *p = round_half_away((s + 128.0).clamp(0.0, 255.0)) as u8;
    }
    Ok(pixels)
}

/// Peak signal-to-noise ratio between two images, in dB; `None` when the
/// images are identical.
pub fn psnr(a: &[u8], b: &[u8]) -> Option<f64> {
    assert_eq!(a.len(), b.len());
    let mse: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64;
    if mse == 0.0 {
        None
    } else {
        Some(10.0 * (255.0f64 * 255.0 / mse).log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::{Scene, SyntheticVideo};
    use proptest::prelude::*;

    /// The codec as it stood before the table-driven rewrite, loop for
    /// loop: the definition the product code must equal byte for byte.
    mod reference {
        use super::super::{quant_matrix, CodecError, ZIGZAG};
        use crate::tile::{TILE_DIM, TILE_PIXELS};

        fn fdct(block: &[f32; TILE_PIXELS]) -> [f32; TILE_PIXELS] {
            let mut tmp = [0f32; TILE_PIXELS];
            let mut out = [0f32; TILE_PIXELS];
            let n = TILE_DIM as f32;
            // Rows.
            for r in 0..TILE_DIM {
                for k in 0..TILE_DIM {
                    let mut sum = 0f32;
                    for x in 0..TILE_DIM {
                        sum += block[r * TILE_DIM + x]
                            * ((std::f32::consts::PI / n) * (x as f32 + 0.5) * k as f32).cos();
                    }
                    let c = if k == 0 {
                        (1.0 / n).sqrt()
                    } else {
                        (2.0 / n).sqrt()
                    };
                    tmp[r * TILE_DIM + k] = c * sum;
                }
            }
            // Columns.
            for c in 0..TILE_DIM {
                for k in 0..TILE_DIM {
                    let mut sum = 0f32;
                    for y in 0..TILE_DIM {
                        sum += tmp[y * TILE_DIM + c]
                            * ((std::f32::consts::PI / n) * (y as f32 + 0.5) * k as f32).cos();
                    }
                    let cc = if k == 0 {
                        (1.0 / n).sqrt()
                    } else {
                        (2.0 / n).sqrt()
                    };
                    out[k * TILE_DIM + c] = cc * sum;
                }
            }
            out
        }

        fn idct(block: &[f32; TILE_PIXELS]) -> [f32; TILE_PIXELS] {
            let mut tmp = [0f32; TILE_PIXELS];
            let mut out = [0f32; TILE_PIXELS];
            let n = TILE_DIM as f32;
            // Columns.
            for c in 0..TILE_DIM {
                for y in 0..TILE_DIM {
                    let mut sum = 0f32;
                    for k in 0..TILE_DIM {
                        let cc = if k == 0 {
                            (1.0 / n).sqrt()
                        } else {
                            (2.0 / n).sqrt()
                        };
                        sum += cc
                            * block[k * TILE_DIM + c]
                            * ((std::f32::consts::PI / n) * (y as f32 + 0.5) * k as f32).cos();
                    }
                    tmp[y * TILE_DIM + c] = sum;
                }
            }
            // Rows.
            for r in 0..TILE_DIM {
                for x in 0..TILE_DIM {
                    let mut sum = 0f32;
                    for k in 0..TILE_DIM {
                        let c = if k == 0 {
                            (1.0 / n).sqrt()
                        } else {
                            (2.0 / n).sqrt()
                        };
                        sum += c
                            * tmp[r * TILE_DIM + k]
                            * ((std::f32::consts::PI / n) * (x as f32 + 0.5) * k as f32).cos();
                    }
                    out[r * TILE_DIM + x] = sum;
                }
            }
            out
        }

        pub fn encode_tile(pixels: &[u8; TILE_PIXELS], quality: u8) -> Vec<u8> {
            let mut out = Vec::with_capacity(24);
            let quant = quant_matrix(quality);
            let mut block = [0f32; TILE_PIXELS];
            for (b, &p) in block.iter_mut().zip(pixels.iter()) {
                *b = p as f32 - 128.0;
            }
            let coeffs = fdct(&block);
            let mut run: u8 = 0;
            for &zz in ZIGZAG.iter() {
                let q = (coeffs[zz] / quant[zz] as f32).round() as i16;
                if q == 0 {
                    run = run.saturating_add(1);
                } else {
                    out.push(run);
                    out.extend_from_slice(&q.to_be_bytes());
                    run = 0;
                }
            }
            out.push(0xFF); // end of block
            out
        }

        pub fn decode_tile(data: &[u8], quality: u8) -> Result<[u8; TILE_PIXELS], CodecError> {
            let quant = quant_matrix(quality);
            let mut coeffs = [0f32; TILE_PIXELS];
            let mut pos = 0usize; // position in zigzag order
            let mut i = 0usize;
            loop {
                let Some(&run) = data.get(i) else {
                    return Err(CodecError::Truncated);
                };
                if run == 0xFF {
                    break;
                }
                if i + 3 > data.len() {
                    return Err(CodecError::Truncated);
                }
                let level = i16::from_be_bytes([data[i + 1], data[i + 2]]);
                i += 3;
                pos += run as usize;
                if pos >= TILE_PIXELS {
                    return Err(CodecError::TooManyCoefficients);
                }
                let zz = ZIGZAG[pos];
                coeffs[zz] = level as f32 * quant[zz] as f32;
                pos += 1;
            }
            let spatial = idct(&coeffs);
            let mut pixels = [0u8; TILE_PIXELS];
            for (p, &s) in pixels.iter_mut().zip(spatial.iter()) {
                *p = (s + 128.0).round().clamp(0.0, 255.0) as u8;
            }
            Ok(pixels)
        }
    }

    /// The qualities where the quantiser changes character: both
    /// extremes, either side of the scale formula's switch at 50, and
    /// the ones the presets use.
    const QUALITIES: [u8; 7] = [1, 10, 25, 49, 50, 75, 100];

    /// Product coder and decoder against the reference on one tile, at
    /// every quality in [`QUALITIES`]; the decoder is also fed the
    /// stream at a quality it was not coded at, and cut short.
    fn assert_matches_reference(tile: &[u8; TILE_PIXELS]) {
        for q in QUALITIES {
            let data = encode_tile(tile, q);
            assert_eq!(data, reference::encode_tile(tile, q), "encode q={q}");
            for dq in [q, 101 - q] {
                assert_eq!(
                    decode_tile(&data, dq),
                    reference::decode_tile(&data, dq),
                    "decode q={q} at {dq}"
                );
            }
            for cut in 0..data.len() {
                assert_eq!(
                    decode_tile(&data[..cut], q),
                    reference::decode_tile(&data[..cut], q)
                );
                assert_eq!(
                    validate_tile(&data[..cut]),
                    reference::decode_tile(&data[..cut], q).map(|_| ())
                );
            }
        }
    }

    fn gradient_tile() -> [u8; TILE_PIXELS] {
        let mut t = [0u8; TILE_PIXELS];
        for y in 0..TILE_DIM {
            for x in 0..TILE_DIM {
                t[y * TILE_DIM + x] = (x * 8 + y * 16) as u8;
            }
        }
        t
    }

    fn noisy_tile(seed: u8) -> [u8; TILE_PIXELS] {
        let mut t = [0u8; TILE_PIXELS];
        let mut s = seed as u32 | 1;
        for p in t.iter_mut() {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *p = (s >> 24) as u8;
        }
        t
    }

    #[test]
    fn dct_roundtrips_without_quantization() {
        let tile = noisy_tile(3);
        let mut block = [0f32; TILE_PIXELS];
        for (b, &p) in block.iter_mut().zip(tile.iter()) {
            *b = p as f32 - 128.0;
        }
        let t = Tables::get();
        let back = idct(t, &fdct(t, &block));
        for (orig, rec) in block.iter().zip(back.iter()) {
            assert!((orig - rec).abs() < 0.01, "{orig} vs {rec}");
        }
    }

    #[test]
    fn flat_tile_compresses_to_a_few_bytes() {
        let tile = [128u8; TILE_PIXELS];
        let data = encode_tile(&tile, 75);
        // DC-only (or empty): at most one token + EOB.
        assert!(data.len() <= 4, "flat tile coded in {} bytes", data.len());
        let back = decode_tile(&data, 75).unwrap();
        assert_eq!(back, tile);
    }

    #[test]
    fn smooth_tile_high_quality_high_fidelity() {
        let tile = gradient_tile();
        let data = encode_tile(&tile, 90);
        let back = decode_tile(&data, 90).unwrap();
        let snr = psnr(&tile, &back).unwrap_or(f64::INFINITY);
        assert!(snr > 35.0, "PSNR {snr:.1} dB too low");
        assert!(data.len() < 64, "no compression achieved: {}", data.len());
    }

    #[test]
    fn quality_trades_size_for_fidelity() {
        let tile = noisy_tile(7);
        let hi = encode_tile(&tile, 95);
        let lo = encode_tile(&tile, 10);
        assert!(lo.len() < hi.len(), "lo {} !< hi {}", lo.len(), hi.len());
        let hi_psnr = psnr(&tile, &decode_tile(&hi, 95).unwrap()).unwrap_or(f64::INFINITY);
        let lo_psnr = psnr(&tile, &decode_tile(&lo, 10).unwrap()).unwrap_or(f64::INFINITY);
        assert!(hi_psnr > lo_psnr, "hi {hi_psnr:.1} !> lo {lo_psnr:.1}");
    }

    #[test]
    fn decode_truncated_fails_cleanly() {
        let tile = gradient_tile();
        let data = encode_tile(&tile, 50);
        for cut in 0..data.len() - 1 {
            let r = decode_tile(&data[..cut], 50);
            // Either a clean error or — if the cut lands after a whole
            // token — a short but valid parse; never a panic.
            if cut == 0 {
                assert_eq!(r, Err(CodecError::Truncated));
            }
        }
    }

    #[test]
    fn decode_overlong_rejected() {
        // 65 tokens of run 0 must overflow the block.
        let mut data = Vec::new();
        for _ in 0..65 {
            data.push(0u8);
            data.extend_from_slice(&1i16.to_be_bytes());
        }
        data.push(0xFF);
        assert_eq!(decode_tile(&data, 50), Err(CodecError::TooManyCoefficients));
    }

    #[test]
    fn quant_matrix_extremes() {
        let q1 = quant_matrix(1);
        let q100 = quant_matrix(100);
        assert!(q1.iter().all(|&v| v == 255), "quality 1 saturates");
        assert!(q100.iter().all(|&v| v == 1), "quality 100 is lossless-ish");
        let q50 = quant_matrix(50);
        assert_eq!(q50[0], QUANT_BASE[0]);
    }

    #[test]
    fn psnr_identical_is_none() {
        let a = [7u8; 64];
        assert_eq!(psnr(&a, &a), None);
        let mut b = a;
        b[0] = 8;
        assert!(psnr(&a, &b).unwrap() > 40.0);
    }

    #[test]
    fn all_extreme_tiles_roundtrip() {
        for v in [0u8, 255] {
            let tile = [v; TILE_PIXELS];
            for q in [1u8, 25, 50, 75, 100] {
                let back = decode_tile(&encode_tile(&tile, q), q).unwrap();
                let snr = psnr(&tile, &back).map(|p| p as i64).unwrap_or(i64::MAX);
                assert!(snr > 30, "v={v} q={q} psnr={snr}");
            }
        }
    }

    #[test]
    fn tables_hold_every_quality() {
        let t = Tables::get();
        for q in 0..=255u8 {
            let want = quant_matrix(q).map(|v| v as f32);
            assert_eq!(t.quant(q), &want, "quality {q}");
        }
    }

    #[test]
    fn rounding_equals_f32_round() {
        let mut cases = vec![0.0f32, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5];
        cases.extend([0.499_999_97, -0.499_999_97, 32_766.5, -32_767.5]);
        cases.extend([32_767.0, -32_768.0, 4_194_303.5, -4_194_303.5]);
        cases.extend([4_194_304.0, -4_194_304.0]);
        let mut s = 1u32;
        for _ in 0..200_000 {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            // Quarter steps across ±2¹⁵ hit every tie and near-tie.
            cases.push(((s >> 8) as i32 - (1 << 23)) as f32 / 256.0);
        }
        for v in cases {
            assert_eq!(round_half_away(v), v.round() as i32, "{v}");
        }
    }

    #[test]
    fn shaped_tiles_match_the_reference() {
        for v in [0u8, 1, 127, 128, 129, 254, 255] {
            assert_matches_reference(&[v; TILE_PIXELS]);
        }
        assert_matches_reference(&gradient_tile());
        // Saturated edges and checkerboards: the largest coefficients
        // the transform can produce.
        let mut edge = [0u8; TILE_PIXELS];
        let mut checker = [0u8; TILE_PIXELS];
        for i in 0..TILE_PIXELS {
            edge[i] = if i % TILE_DIM < 4 { 0 } else { 255 };
            checker[i] = if (i / TILE_DIM + i % TILE_DIM).is_multiple_of(2) {
                0
            } else {
                255
            };
        }
        assert_matches_reference(&edge);
        assert_matches_reference(&checker);
    }

    #[test]
    fn synthetic_video_tiles_match_the_reference() {
        for scene in [Scene::MovingGradient, Scene::Noise, Scene::TestCard] {
            let video = SyntheticVideo::new(64, 48, scene, 7);
            for n in [0u32, 3] {
                let image = video.frame(n);
                for ty in 0..video.tiles_y() {
                    for tx in 0..video.tiles_x() {
                        let tile = Tile::from_image(&image, video.width, tx, ty);
                        assert_matches_reference(&tile.pixels);
                    }
                }
            }
        }
    }

    fn rows_of(tile: &[u8; TILE_PIXELS]) -> [u64; TILE_DIM] {
        std::array::from_fn(|r| {
            u64::from_le_bytes(tile[r * TILE_DIM..][..TILE_DIM].try_into().unwrap())
        })
    }

    /// One grey above another: codes in a few tokens at any quality,
    /// so the cache keeps it.
    fn step_tile(n: usize) -> [u8; TILE_PIXELS] {
        let mut t = [n as u8; TILE_PIXELS];
        t[TILE_PIXELS / 2..].fill((n >> 8) as u8);
        t
    }

    /// Two different step tiles the cache files under one slot at
    /// quantiser `q`.
    fn colliding_pair(q: u8) -> [[u8; TILE_PIXELS]; 2] {
        let mut seen = std::collections::HashMap::new();
        for n in 0.. {
            let tile = step_tile(n);
            if let Some(first) = seen.insert(slot_of(q, &rows_of(&tile)), n) {
                return [step_tile(first), tile];
            }
        }
        unreachable!("2,049 tiles cannot fill 2,048 slots apart")
    }

    /// The slot `tile` would use at quantiser `q`, as this thread's
    /// cache holds it now.
    fn slot_for(q: u8, tile: &[u8; TILE_PIXELS]) -> Slot {
        CACHE.with_borrow(|cache| cache[slot_of(q, &rows_of(tile))])
    }

    #[test]
    fn a_hit_needs_the_quantiser_and_every_pixel() {
        let [a, b] = colliding_pair(50);
        let want = |tile, q| reference::encode_tile(tile, q);
        // The second content evicts the first; each is still coded
        // as itself, before and after.
        for tile in [&a, &b, &b, &a, &a] {
            assert_eq!(encode_tile(tile, 50), want(tile, 50));
            assert_eq!(slot_for(50, tile).rows, rows_of(tile), "latest wins");
        }
        // One content, two quantisers — also when both land in one slot.
        for q in [10, 90, 50] {
            CACHE.with_borrow_mut(|cache| {
                let held = cache[slot_of(50, &rows_of(&a))];
                cache[slot_of(q, &rows_of(&a))] = held;
            });
            assert_eq!(encode_tile(&a, q), want(&a, q), "q={q}");
        }
        // Qualities that clamp to one quantiser share its entry.
        for (q, clamped) in [(0, 1), (1, 1), (100, 100), (255, 100)] {
            assert_eq!(encode_tile(&a, q), want(&a, q), "q={q}");
            assert_eq!(slot_for(clamped, &a).quality, clamped);
        }
        // A coding longer than a slot passes through whole and leaves
        // the slot as it was.
        let noisy = noisy_tile(7);
        let before = slot_for(95, &noisy);
        let coded = encode_tile(&noisy, 95);
        assert!(coded.len() > SLOT_TOKENS);
        assert_eq!(coded, want(&noisy, 95));
        let after = slot_for(95, &noisy);
        assert_eq!((after.rows, after.quality), (before.rows, before.quality));
        assert_eq!(encode_tile(&noisy, 95), coded);
    }

    #[test]
    fn a_noise_run_longer_than_the_cache_matches_the_reference() {
        // 2,376 distinct tiles through 2,048 slots, at a quality where
        // noise still fits a slot (every tile stored, most evicted) and
        // at one where it does not (every tile passed through); the
        // gradient tile in between is a hit whenever it survived.
        let video = SyntheticVideo::qcif(Scene::Noise);
        let gradient = gradient_tile();
        let (mut stored, mut out) = ([0; 2], Vec::new());
        for n in 0..6 {
            let image = video.frame(n);
            for ty in 0..video.tiles_y() {
                for tx in 0..video.tiles_x() {
                    let tile = Tile::from_image(&image, video.width, tx, ty).pixels;
                    for (q, stored) in [3, 90].into_iter().zip(&mut stored) {
                        out.clear();
                        encode_tile_from(&image, video.width, tx, ty, q, &mut out);
                        assert_eq!(out, reference::encode_tile(&tile, q), "q={q}");
                        let slot = slot_for(q, &tile);
                        *stored += usize::from((slot.rows, slot.quality) == (rows_of(&tile), q));
                        assert_eq!(
                            encode_tile(&gradient, q),
                            reference::encode_tile(&gradient, q)
                        );
                    }
                }
            }
        }
        let tiles = 6 * video.tiles_x() * video.tiles_y();
        assert!(tiles > 1 << CACHE_BITS);
        assert!(
            stored[0] > tiles * 9 / 10,
            "{} of {tiles} stored",
            stored[0]
        );
        assert_eq!(stored[1], 0, "noise at quality 90 never fits a slot");
    }

    /// What the sequence proptest draws from: contents that share a
    /// slot, one that is never stored, and qualities on both sides of
    /// the clamp — each with the reference's answer.
    type Pool = Vec<([u8; TILE_PIXELS], u8, Vec<u8>)>;

    fn pool() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let [a, b] = colliding_pair(50);
            let tiles = [a, b, gradient_tile(), [128; TILE_PIXELS], noisy_tile(7)];
            let qualities = [0, 1, 50, 75, 100, 255];
            let entry = |t: &[u8; TILE_PIXELS], q| (*t, q, reference::encode_tile(t, q));
            let pairs = tiles.iter().flat_map(|t| qualities.map(|q| entry(t, q)));
            pairs.collect()
        })
    }

    proptest! {
        #[test]
        fn prop_random_tiles_match_the_reference(
            pixels in proptest::collection::vec(any::<u8>(), TILE_PIXELS),
        ) {
            let tile: [u8; TILE_PIXELS] = pixels.try_into().expect("64 pixels");
            assert_matches_reference(&tile);
        }

        #[test]
        fn prop_any_sequence_of_tiles_matches_the_reference(
            picks in proptest::collection::vec(any::<proptest::sample::Index>(), 1..150),
        ) {
            // One thread runs every case, so each starts on the cache
            // the last one left.
            let mut out = vec![0xEE];
            for pick in picks {
                let (tile, quality, want) = &pool()[pick.index(pool().len())];
                out.truncate(1);
                encode_tile_into(tile, *quality, &mut out);
                prop_assert_eq!(&out[1..], &want[..]);
            }
        }

        #[test]
        fn prop_arbitrary_bitstreams_match_the_reference(
            data in proptest::collection::vec(any::<u8>(), 0..220),
            quality in any::<u8>(),
        ) {
            prop_assert_eq!(decode_tile(&data, quality), reference::decode_tile(&data, quality));
            prop_assert_eq!(
                validate_tile(&data),
                reference::decode_tile(&data, quality).map(|_| ())
            );
        }
    }
}
