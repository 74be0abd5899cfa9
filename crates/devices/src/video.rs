//! Deterministic synthetic video sources.
//!
//! The hardware ATM camera's CCD array is replaced by procedural frame
//! generators. Two patterns cover the experimental needs: a smooth moving
//! scene (compresses well, like real video) and a noise scene (worst case
//! for the codec). Both are pure functions of `(seed, frame_number)`, so
//! every experiment is reproducible.
//!
//! Being pure, a picture is rendered once however many cameras show it:
//! [`SyntheticVideo::frame_leased`] hands every caller on a thread the
//! one live, immutable buffer of a given `(size, scene, seed, n)`, found
//! through a table of weak handles. [`SyntheticVideo::render`] and
//! [`SyntheticVideo::frame`] draw afresh every call and are the
//! reference the shared buffers are tested against.

use std::cell::RefCell;
use std::collections::HashMap;

use pegasus_sim::arena::{Arena, FrameBuf, WeakFrameBuf};

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
    /// frame some camera still holds and never holds one itself, so the
    /// storage goes back to its arena with the last camera's last row,
    /// and the table is as long as the number of distinct pictures being
    /// shown at once — there is no capacity to choose. Per thread
    /// because shards are threads that share nothing (and a `FrameBuf`
    /// cannot cross one).
    static FRAMES: RefCell<HashMap<FrameKey, WeakFrameBuf>> = RefCell::new(HashMap::new());
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

    /// Frame `n` as an immutable buffer: the one live rendering of this
    /// picture on this thread if anything still holds it (a lookup and a
    /// refcount bump — nothing is drawn or leased), otherwise a fresh
    /// [`SyntheticVideo::render`] into storage leased from `arena`,
    /// which later callers share for as long as any handle on it lives.
    /// Cameras showing the same picture therefore hold
    /// [`FrameBuf::same_buffer`] images, and the buffer belongs to the
    /// arena of whichever asked first. The bytes are `render`'s either
    /// way.
    pub fn frame_leased(&self, n: u32, arena: &Arena) -> FrameBuf {
        let key = self.frame_key(n);
        FRAMES.with(|frames| {
            if let Some(shared) = frames.borrow().get(&key).and_then(WeakFrameBuf::upgrade) {
                return shared;
            }
            let mut lease = arena.lease_zeroed(self.frame_bytes());
            self.render(n, &mut lease);
            let frame = lease.freeze();
            let mut frames = frames.borrow_mut();
            // A miss is the one moment the table can grow, so it is when
            // the entries whose pictures have gone are dropped.
            frames.retain(|_, weak| weak.upgrade().is_some());
            frames.insert(key, frame.downgrade());
            frame
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
    pub fn tiles_x(&self) -> usize {
        self.width / 8
    }

    /// Number of tile rows.
    pub fn tiles_y(&self) -> usize {
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
                prop_assert!(FrameBuf::same_buffer(&first, &repeat));
                prop_assert_eq!(arena.stats().leases_granted, round + 1);
            }
            prop_assert_eq!(arena.stats().outstanding, 0);
        }
    }

    #[test]
    fn only_the_same_picture_is_shared() {
        let arena = Arena::new();
        let base = SyntheticVideo::new(64, 48, Scene::MovingGradient, 7);
        let held = base.frame_leased(3, &arena);
        assert!(FrameBuf::same_buffer(
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
                live.iter().all(|f| !FrameBuf::same_buffer(f, &frame)),
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
        assert!(FrameBuf::same_buffer(&a, &b));
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
