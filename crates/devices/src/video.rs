//! Deterministic synthetic video sources.
//!
//! The hardware ATM camera's CCD array is replaced by procedural frame
//! generators. Two patterns cover the experimental needs: a smooth moving
//! scene (compresses well, like real video) and a noise scene (worst case
//! for the codec). Both are pure functions of `(seed, frame_number)`, so
//! every experiment is reproducible.
//!
//! Being pure, a picture is rendered once however many cameras show it,
//! and each of its tile rows is coded once per coding and quality:
//! [`SyntheticVideo::frame_leased`] hands every caller on a thread the
//! one live [`Picture`] of a given `(size, scene, seed, n)`, found
//! through a table of weak handles — an immutable buffer and the rows
//! coded from it so far. [`SyntheticVideo::render`] and
//! [`SyntheticVideo::frame`] draw afresh every call and are the
//! reference the shared buffers are tested against.

use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::ops::{Deref, Range};
use std::rc::{Rc, Weak};

use pegasus_sim::arena::{Arena, FrameBuf};

use crate::codec;
use crate::tile::{self, Tile, TileCoding, TILE_DIM, TILE_PIXELS, TILE_PREFIX_LEN};

/// The moving-gradient scene repeats every this many steps along a row:
/// three pixels to a grey level, 256 levels.
const RAMP_PERIOD: usize = 3 * 256;

/// Two periods of the gradient, `RAMP[i] = (i / 3) % 256`, so a span of
/// up to one period can start anywhere in the first.
const RAMP: [u8; 2 * RAMP_PERIOD] = {
    let mut ramp = [0u8; 2 * RAMP_PERIOD];
    let mut i = 0;
    while i < ramp.len() {
        ramp[i] = (i / 3 % 256) as u8;
        i += 1;
    }
    ramp
};

/// A procedural luminance video source.
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    /// Frame width in pixels (multiple of 8).
    pub width: usize,
    /// Frame height in pixels (multiple of 8).
    pub height: usize,
    /// Scene selector.
    pub scene: Scene,
    /// Seed mixed into the pattern.
    pub seed: u64,
}

/// The available synthetic scenes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scene {
    /// A smooth diagonal gradient drifting over time with a moving
    /// bright square — typical "talking head plus motion" compressibility.
    MovingGradient,
    /// Uniform pseudo-random noise — incompressible worst case.
    Noise,
    /// A static test card (only the first frame's content, repeated) —
    /// the best case for any coder and for latency tests that want
    /// constant-size output.
    TestCard,
}

/// Everything a rendered frame's bytes depend on, and nothing they do
/// not: sources that [`SyntheticVideo::render`] the same picture have
/// equal keys.
#[derive(PartialEq, Eq, Hash)]
struct FrameKey {
    width: usize,
    height: usize,
    scene: Scene,
    seed: u64,
    n: u32,
}

thread_local! {
    /// The pictures alive on this thread, by key. Weak: an entry finds a
    /// picture some camera still holds and never holds one itself, so
    /// the image goes back to its arena, and the coded rows with it,
    /// with the last camera's last row, and the table is as long as the
    /// number of distinct pictures being shown at once — there is no
    /// capacity to choose. Per thread because shards are threads that
    /// share nothing (and a `FrameBuf` cannot cross one).
    static FRAMES: RefCell<HashMap<FrameKey, Weak<Shown>>> = RefCell::new(HashMap::new());
}

/// A picture on show: the one rendering of it on this thread, which
/// every camera showing it shares, and its tile rows as coded so far.
/// Dereferences to the image's pixels; a clone is another handle on the
/// same picture. The coded rows belong to the picture and go with it,
/// so nothing else keeps, keys or evicts them.
#[derive(Clone)]
pub struct Picture(Rc<Shown>);

struct Shown {
    image: FrameBuf,
    width: usize,
    coded: RefCell<CodedRows>,
}

/// A picture's coded tile rows, one after another in `bytes`, and where
/// each lies: row `row` coded as `coding` at `quality` is `bytes[at]`
/// for the entry `((coding, quality, row), at)`.
struct CodedRows {
    bytes: Vec<u8>,
    rows: Vec<((TileCoding, u8, usize), Range<usize>)>,
}

impl Picture {
    /// `video`'s picture drawn in `image`, none of its rows coded yet.
    fn new(video: &SyntheticVideo, image: FrameBuf) -> Self {
        // Room for every row coded once at the raw size, reserved with
        // the picture so that coding rows as they are scanned allocates
        // nothing: a Motion-JPEG coding of a drawn scene is shorter. A
        // second coding, or noise, grows it.
        let tiles = video.tiles_x() * video.tiles_y();
        let coded = CodedRows {
            bytes: Vec::with_capacity(tiles * (TILE_PREFIX_LEN + TILE_PIXELS)),
            rows: Vec::with_capacity(video.tiles_y()),
        };
        Picture(Rc::new(Shown {
            image,
            width: video.width,
            coded: RefCell::new(coded),
        }))
    }

    /// Tile row `row` coded as `coding` at `quality` (0 for raw), as a
    /// tile frame carries it: tile after tile across the picture, each
    /// `x(2) y(2) len(2)` and its payload. The first holder to ask codes
    /// it; every later one, on any camera, reads the same bytes.
    ///
    /// # Panics
    ///
    /// Panics if the row lies outside the picture.
    pub(crate) fn coded_row(&self, row: usize, coding: TileCoding, quality: u8) -> Ref<'_, [u8]> {
        let key = (coding, quality, row);
        let found = (self.0.coded.borrow().rows.iter())
            .find(|(k, _)| *k == key)
            .map(|(_, at)| at.clone());
        let at = found.unwrap_or_else(|| {
            let coded = &mut *self.0.coded.borrow_mut();
            let start = coded.bytes.len();
            self.code_row(row, coding, quality, &mut coded.bytes);
            coded.rows.push((key, start..coded.bytes.len()));
            start..coded.bytes.len()
        });
        Ref::map(self.0.coded.borrow(), |coded| &coded.bytes[at])
    }

    /// Appends row `row`'s tiles to `out`, framed, raw or coded.
    fn code_row(&self, row: usize, coding: TileCoding, quality: u8, out: &mut Vec<u8>) {
        let (image, width) = (&self.0.image[..], self.0.width);
        for tx in 0..width / TILE_DIM {
            let t = Tile::from_image(image, width, tx, row);
            tile::push_framed(out, t.x, t.y, |out| match coding {
                TileCoding::Raw => out.extend_from_slice(&t.pixels),
                TileCoding::Compressed => codec::code_tile(&t.pixels, quality, out),
            });
        }
    }

    /// Whether `a` and `b` are handles on one picture.
    #[cfg(test)]
    pub(crate) fn same(a: &Picture, b: &Picture) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// Live handles on this picture, this one included.
    #[cfg(test)]
    pub(crate) fn handle_count(&self) -> usize {
        Rc::strong_count(&self.0)
    }

    /// How many row codings the picture holds.
    #[cfg(test)]
    pub(crate) fn rows_coded(&self) -> usize {
        self.0.coded.borrow().rows.len()
    }
}

impl Deref for Picture {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.image
    }
}

impl SyntheticVideo {
    /// Creates a source; dimensions must be multiples of the tile size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is not a multiple of 8.
    pub fn new(width: usize, height: usize, scene: Scene, seed: u64) -> Self {
        assert!(
            width.is_multiple_of(8) && height.is_multiple_of(8),
            "dimensions must be tile-aligned"
        );
        SyntheticVideo {
            width,
            height,
            scene,
            seed,
        }
    }

    /// A quarter-CIF-ish default (176×144 is QCIF; we use a tile-aligned
    /// 176×144).
    pub fn qcif(scene: Scene) -> Self {
        SyntheticVideo::new(176, 144, scene, 1994)
    }

    /// Bytes per raw frame.
    pub fn frame_bytes(&self) -> usize {
        self.width * self.height
    }

    /// Renders frame `n` into a new buffer.
    pub fn frame(&self, n: u32) -> Vec<u8> {
        let mut buf = vec![0u8; self.frame_bytes()];
        self.render(n, &mut buf);
        buf
    }

    /// Frame `n` as a [`Picture`]: the one live picture of it on this
    /// thread if anything still holds it (a lookup and a refcount bump —
    /// nothing is drawn, leased or coded), otherwise a fresh
    /// [`SyntheticVideo::render`] into storage leased from `arena`,
    /// which later callers share for as long as any handle on it lives.
    /// Cameras showing the same picture therefore hold handles on one
    /// picture and read one coding of each row, and the image belongs
    /// to the arena of whichever asked first. The pixels are `render`'s
    /// either way.
    pub fn frame_leased(&self, n: u32, arena: &Arena) -> Picture {
        let key = self.frame_key(n);
        FRAMES.with(|frames| {
            if let Some(shown) = frames.borrow().get(&key).and_then(Weak::upgrade) {
                return Picture(shown);
            }
            let mut lease = arena.lease_zeroed(self.frame_bytes());
            self.render(n, &mut lease);
            let picture = Picture::new(self, lease.freeze());
            let mut frames = frames.borrow_mut();
            // A miss is the one moment the table can grow, so it is when
            // the entries whose pictures have gone are dropped.
            frames.retain(|_, weak| weak.strong_count() > 0);
            frames.insert(key, Rc::downgrade(&picture.0));
            picture
        })
    }

    /// The key of frame `n`, canonicalised by content: a test card is
    /// the same picture whatever the seed and frame number.
    fn frame_key(&self, n: u32) -> FrameKey {
        let (seed, n) = match self.scene {
            Scene::TestCard => (0, 0),
            Scene::MovingGradient | Scene::Noise => (self.seed, n),
        };
        FrameKey {
            width: self.width,
            height: self.height,
            scene: self.scene,
            seed,
            n,
        }
    }

    /// Renders frame `n` into `buf` (must be `frame_bytes()` long).
    pub fn render(&self, n: u32, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.frame_bytes());
        if buf.is_empty() {
            return;
        }
        match self.scene {
            Scene::MovingGradient => {
                let phase = (n as usize * 3) % 256;
                // Moving square position.
                let sq = 16usize;
                let sx = (n as usize * 5) % (self.width.saturating_sub(sq).max(1));
                let sy = (n as usize * 2) % (self.height.saturating_sub(sq).max(1));
                // The gradient at (x, y) is `((x + 2y + phase + seed) / 3)
                // % 256`: along a row it is RAMP read from wherever the
                // row's own offset puts it, one step of 768 like another.
                let seed = (self.seed % RAMP_PERIOD as u64) as usize;
                for (y, row) in buf.chunks_exact_mut(self.width).enumerate() {
                    let mut at = (2 * y + phase + seed) % RAMP_PERIOD;
                    for span in row.chunks_mut(RAMP_PERIOD) {
                        span.copy_from_slice(&RAMP[at..at + span.len()]);
                        at = (at + span.len()) % RAMP_PERIOD;
                    }
                    if (sy..sy + sq).contains(&y) {
                        row[sx..(sx + sq).min(self.width)].fill(240);
                    }
                }
            }
            Scene::Noise => {
                // A zero state would freeze the xorshift; the odd
                // constant keeps every (seed, frame) pair live.
                let mut s = self
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(n as u64)
                    .wrapping_add(0xA076_1D64_78BD_642F);
                for p in buf.iter_mut() {
                    // xorshift64*
                    s ^= s >> 12;
                    s ^= s << 25;
                    s ^= s >> 27;
                    *p = (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
                }
            }
            Scene::TestCard => {
                // Colour bars in luminance: 8 vertical bands, every row
                // the same as the first.
                let (first, rest) = buf.split_at_mut(self.width);
                for (x, p) in first.iter_mut().enumerate() {
                    let band = x * 8 / self.width;
                    *p = (band * 32 + 16) as u8;
                }
                for row in rest.chunks_exact_mut(self.width) {
                    row.copy_from_slice(first);
                }
            }
        }
    }

    /// Number of tile columns.
    pub(crate) fn tiles_x(&self) -> usize {
        self.width / 8
    }

    /// Number of tile rows.
    pub(crate) fn tiles_y(&self) -> usize {
        self.height / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SCENES: [Scene; 3] = [Scene::MovingGradient, Scene::Noise, Scene::TestCard];

    proptest! {
        #[test]
        fn prop_a_leased_frame_is_the_rendered_frame(
            scene in 0usize..3,
            seed in any::<u64>(),
            n in any::<u32>(),
            tiles_x in 0usize..12,
            tiles_y in 0usize..12,
        ) {
            // One thread runs every case, so each starts on the table
            // the last one left. Nothing holds the first round's frame
            // when the second asks: it is drawn again.
            let v = SyntheticVideo::new(tiles_x * 8, tiles_y * 8, SCENES[scene], seed);
            let arena = Arena::new();
            let want = v.frame(n);
            for round in 0..2 {
                let first = v.frame_leased(n, &arena);
                prop_assert_eq!(&first[..], &want[..]);
                let repeat = v.frame_leased(n, &arena);
                prop_assert_eq!(&repeat[..], &want[..]);
                prop_assert!(Picture::same(&first, &repeat));
                prop_assert_eq!(arena.stats().leases_granted, round + 1);
            }
            prop_assert_eq!(arena.stats().outstanding, 0);
        }
    }

    proptest! {
        #[test]
        fn prop_a_coded_row_is_its_tiles_as_a_frame_carries_them(
            scene in 0usize..3,
            seed in any::<u64>(),
            n in any::<u32>(),
            quality in any::<u8>(),
            tiles_x in 1usize..6,
            tiles_y in 1usize..4,
        ) {
            let v = SyntheticVideo::new(tiles_x * 8, tiles_y * 8, SCENES[scene], seed);
            let picture = v.frame_leased(n, &Arena::new());
            let image = v.frame(n);
            let codings = [(TileCoding::Compressed, quality), (TileCoding::Raw, 0)];
            // Bottom row first: a row is coded whenever it is first asked.
            for row in (0..tiles_y).rev() {
                for (coding, quality) in codings {
                    let tiles = (0..tiles_x).map(|tx| {
                        let pixels = Tile::from_image(&image, v.width, tx, row).pixels;
                        let payload = match coding {
                            TileCoding::Raw => pixels.to_vec(),
                            TileCoding::Compressed => codec::encode_tile(&pixels, quality),
                        };
                        ((tx * 8) as u16, (row * 8) as u16, payload)
                    });
                    let frame = crate::tile::TileFrame {
                        coding,
                        quality,
                        frame_seq: n,
                        timestamp: 0,
                        tiles: tiles.collect(),
                    };
                    let coded = picture.coded_row(row, coding, quality);
                    prop_assert_eq!(&coded[..], &frame.encode()[15..]);
                }
            }
            // Asked again, read again: nothing more is coded.
            prop_assert_eq!(picture.rows_coded(), 2 * tiles_y);
            let again = v.frame_leased(n, &Arena::new());
            let raw = again.coded_row(0, TileCoding::Raw, 0).len();
            prop_assert_eq!(raw, tiles_x * (6 + 64));
            prop_assert_eq!(picture.rows_coded(), 2 * tiles_y);
        }
    }

    #[test]
    fn only_the_same_picture_is_shared() {
        let arena = Arena::new();
        let base = SyntheticVideo::new(64, 48, Scene::MovingGradient, 7);
        let held = base.frame_leased(3, &arena);
        assert!(Picture::same(
            &held,
            &base.clone().frame_leased(3, &Arena::new())
        ));
        let others = [
            (SyntheticVideo::new(64, 48, Scene::MovingGradient, 8), 3),
            (SyntheticVideo::new(48, 64, Scene::MovingGradient, 7), 3),
            (SyntheticVideo::new(64, 48, Scene::Noise, 7), 3),
            (SyntheticVideo::new(64, 48, Scene::TestCard, 7), 3),
            (base.clone(), 4),
        ];
        let mut live = vec![held];
        for (video, n) in others {
            let frame = video.frame_leased(n, &arena);
            assert_eq!(&frame[..], &video.frame(n)[..]);
            assert!(
                live.iter().all(|f| !Picture::same(f, &frame)),
                "{video:?} frame {n} shared another picture's buffer"
            );
            live.push(frame);
        }
        assert_eq!(arena.stats().outstanding, live.len() as u64);
    }

    #[test]
    fn a_test_card_is_one_picture_at_any_frame_and_seed() {
        let arena = Arena::new();
        let a = SyntheticVideo::new(64, 48, Scene::TestCard, 1).frame_leased(0, &arena);
        let b = SyntheticVideo::new(64, 48, Scene::TestCard, 2).frame_leased(99, &arena);
        assert!(Picture::same(&a, &b));
        assert_eq!(arena.stats().leases_granted, 1);
    }

    #[test]
    fn threads_do_not_see_each_others_frames() {
        let v = SyntheticVideo::qcif(Scene::TestCard);
        let arena = Arena::new();
        let here = v.frame_leased(0, &arena);
        let there = v.clone();
        let (granted, bytes) = std::thread::spawn(move || {
            let arena = Arena::new();
            let frame = there.frame_leased(0, &arena);
            (arena.stats().leases_granted, frame.to_vec())
        })
        .join()
        .expect("ran");
        assert_eq!(granted, 1, "the other thread rendered its own");
        assert_eq!(&here[..], &bytes[..]);
    }

    /// The two drawn scenes pixel by pixel, as `render` first defined
    /// them.
    fn reference_pixel(v: &SyntheticVideo, n: u32, x: usize, y: usize) -> u8 {
        match v.scene {
            Scene::MovingGradient => {
                let phase = (n as usize * 3) % 256;
                let sq = 16usize;
                let sx = (n as usize * 5) % (v.width.saturating_sub(sq).max(1));
                let sy = (n as usize * 2) % (v.height.saturating_sub(sq).max(1));
                if x >= sx && x < sx + sq && y >= sy && y < sy + sq {
                    240
                } else {
                    (((x + 2 * y + phase + v.seed as usize) / 3) % 256) as u8
                }
            }
            Scene::TestCard => (x * 8 / v.width * 32 + 16) as u8,
            Scene::Noise => unreachable!("noise is a stream, not a function of (x, y)"),
        }
    }

    #[test]
    fn render_matches_the_per_pixel_definition() {
        // Narrower than the square, ordinary, and wider than two periods
        // of the gradient; seeds on both sides of a period and far above.
        for (width, height) in [(8, 8), (16, 24), (176, 144), (1600, 8)] {
            for seed in [0, 1994, 767, 768, u64::MAX / 2] {
                for scene in [Scene::MovingGradient, Scene::TestCard] {
                    let v = SyntheticVideo::new(width, height, scene, seed);
                    for n in [0, 1, 7, 85, 86, 1_000_003] {
                        let frame = v.frame(n);
                        for (i, &p) in frame.iter().enumerate() {
                            let (x, y) = (i % width, i / width);
                            assert_eq!(
                                p,
                                reference_pixel(&v, n, x, y),
                                "{scene:?} {width}x{height} seed {seed} frame {n} at ({x}, {y})"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(SyntheticVideo::new(0, 8, Scene::TestCard, 0).frame(0), []);
    }

    #[test]
    fn deterministic_per_frame() {
        let v = SyntheticVideo::qcif(Scene::MovingGradient);
        assert_eq!(v.frame(5), v.frame(5));
        assert_ne!(v.frame(5), v.frame(6), "scene should move");
    }

    #[test]
    fn noise_differs_per_seed() {
        let a = SyntheticVideo::new(64, 64, Scene::Noise, 1).frame(0);
        let b = SyntheticVideo::new(64, 64, Scene::Noise, 2).frame(0);
        assert_ne!(a, b);
    }

    #[test]
    fn test_card_is_static() {
        let v = SyntheticVideo::qcif(Scene::TestCard);
        assert_eq!(v.frame(0), v.frame(100));
    }

    #[test]
    fn dimensions() {
        let v = SyntheticVideo::qcif(Scene::TestCard);
        assert_eq!(v.frame_bytes(), 176 * 144);
        assert_eq!(v.tiles_x(), 22);
        assert_eq!(v.tiles_y(), 18);
    }

    #[test]
    #[should_panic(expected = "tile-aligned")]
    fn misaligned_rejected() {
        let _ = SyntheticVideo::new(100, 64, Scene::Noise, 0);
    }

    #[test]
    fn gradient_is_smooth_noise_is_not() {
        // Mean absolute horizontal delta: small for gradient, large for noise.
        let delta = |buf: &[u8], w: usize| -> f64 {
            let mut sum = 0f64;
            let mut n = 0f64;
            for row in buf.chunks(w) {
                for pair in row.windows(2) {
                    sum += (pair[0] as f64 - pair[1] as f64).abs();
                    n += 1.0;
                }
            }
            sum / n
        };
        let g = SyntheticVideo::new(64, 64, Scene::MovingGradient, 0).frame(0);
        let z = SyntheticVideo::new(64, 64, Scene::Noise, 0).frame(0);
        assert!(delta(&g, 64) < 10.0);
        assert!(delta(&z, 64) > 40.0);
    }
}
