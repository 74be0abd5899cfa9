//! The ATM display (§2.1, Figure 3).
//!
//! "The ATM display implements a single primitive, that of displaying
//! arriving pixel tiles on incoming virtual circuits to windows on the
//! screen. The virtual-circuit identifier (VCI) is used as an index into
//! a table of window descriptors; each window descriptor has an x and y
//! offset from the top-left-hand corner of the display, and clipping
//! information. By manipulation of these contexts, a window manager can
//! control which virtual channel, and thus which process, can access the
//! different pixels of the screen."
//!
//! The window manager here offers create, move, resize, raise and
//! lower, plus the
//! whole-screen descriptor it uses "for decorating windows with title
//! bars and resize buttons". Since tiles are fixed-size bit-blits,
//! graphics drawn by the window manager and video from a camera travel
//! through the identical path — the unification the paper highlights.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use pegasus_atm::aal5::Reassembler;
use pegasus_atm::cell::{Cell, Vci};
use pegasus_atm::link::CellSink;
use pegasus_sim::stats::Histogram;
use pegasus_sim::Simulator;

use crate::codec;
use crate::tile::{TileCoding, TileFrameView, TILE_DIM, TILE_PIXELS};

/// A screen-space rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Left edge.
    pub x: i32,
    /// Top edge.
    pub y: i32,
    /// Width in pixels.
    pub w: i32,
    /// Height in pixels.
    pub h: i32,
}

impl Rect {
    /// Creates a rectangle.
    pub fn new(x: i32, y: i32, w: i32, h: i32) -> Self {
        Rect { x, y, w, h }
    }

    /// Whether the point lies inside.
    pub fn contains(&self, px: i32, py: i32) -> bool {
        px >= self.x && px < self.x + self.w && py >= self.y && py < self.y + self.h
    }

    /// Whether no point lies inside.
    fn is_empty(&self) -> bool {
        self.w <= 0 || self.h <= 0
    }

    /// The points inside both; empty (see [`Rect::is_empty`]) when the
    /// two do not overlap.
    fn intersect(&self, other: &Rect) -> Rect {
        let x = self.x.max(other.x);
        let y = self.y.max(other.y);
        Rect {
            x,
            y,
            w: (self.x + self.w).min(other.x + other.w) - x,
            h: (self.y + self.h).min(other.y + other.h) - y,
        }
    }
}

/// One entry of the display's window-descriptor table.
#[derive(Debug, Clone, Copy)]
pub struct WindowDescriptor {
    /// X offset of the stream's origin on screen.
    pub dst_x: i32,
    /// Y offset of the stream's origin on screen.
    pub dst_y: i32,
    /// Screen-space clip rectangle (also the window's footprint for
    /// occlusion).
    pub clip: Rect,
    /// Stacking order; higher is closer to the viewer.
    pub z: u32,
    /// Invisible windows accept and discard their tiles.
    pub visible: bool,
    /// Overlay descriptors (the window manager's whole-screen channel)
    /// paint over everything but do not occlude ordinary windows — the
    /// manager repaints decorations when windows underneath change.
    pub overlay: bool,
}

/// Display-side counters.
#[derive(Debug, Default, Clone)]
pub struct DisplayStats {
    /// Tiles blitted (at least one pixel written).
    pub tiles_blitted: u64,
    /// Tiles fully clipped away or addressed to unknown/invisible windows.
    pub tiles_discarded: u64,
    /// Pixels written to the framebuffer.
    pub pixels_written: u64,
    /// AAL5 frames that failed reassembly or parsing.
    pub frames_bad: u64,
    /// Scan-to-blit latency of each tile frame.
    pub latency: Histogram,
}

/// The ATM display device: a framebuffer plus the descriptor table.
pub struct Display {
    width: i32,
    height: i32,
    /// Empty in headless mode; `width × height` bytes otherwise.
    framebuffer: Vec<u8>,
    /// Headless displays evaluate the full blit geometry (clipping,
    /// occlusion, every counter in [`DisplayStats`]) but never allocate
    /// or write the framebuffer — city-scale presets attach thousands of
    /// displays whose pixels nobody reads, and the stats must stay
    /// byte-identical to a framebuffer run.
    headless: bool,
    windows: HashMap<Vci, WindowDescriptor>,
    /// One reassembler per circuit seen (a display has a handful of
    /// windows; linear scan, no hashing on the per-cell path).
    reasm: Vec<(Vci, Reassembler)>,
    /// Scratch for [`Display::blit_frame`]: the clip rectangles that can
    /// hide the frame being blitted. Empty between frames; kept for its
    /// capacity.
    occluders: Vec<Rect>,
    /// Device counters.
    pub stats: DisplayStats,
}

impl Display {
    /// Creates a display of the given pixel dimensions, shared so it can
    /// serve as a link's [`CellSink`].
    pub fn shared(width: i32, height: i32) -> Rc<RefCell<Display>> {
        Rc::new(RefCell::new(Display {
            width,
            height,
            framebuffer: vec![0; (width * height) as usize],
            headless: false,
            windows: HashMap::new(),
            reasm: Vec::new(),
            occluders: Vec::new(),
            stats: DisplayStats::default(),
        }))
    }

    /// Creates a headless display: same geometry and statistics as
    /// [`Display::shared`], no framebuffer memory. [`Display::pixel`]
    /// must not be called on it.
    pub fn shared_headless(width: i32, height: i32) -> Rc<RefCell<Display>> {
        Rc::new(RefCell::new(Display {
            width,
            height,
            framebuffer: Vec::new(),
            headless: true,
            windows: HashMap::new(),
            reasm: Vec::new(),
            occluders: Vec::new(),
            stats: DisplayStats::default(),
        }))
    }

    /// Screen width.
    pub(crate) fn width(&self) -> i32 {
        self.width
    }

    /// Screen height.
    pub(crate) fn height(&self) -> i32 {
        self.height
    }

    /// Reads a pixel (for tests and screenshots).
    ///
    /// # Panics
    ///
    /// Panics on a headless display — there are no pixels to read.
    pub fn pixel(&self, x: i32, y: i32) -> u8 {
        assert!(!self.headless, "headless display has no framebuffer");
        assert!(x >= 0 && x < self.width && y >= 0 && y < self.height);
        self.framebuffer[(y * self.width + x) as usize]
    }

    /// Installs or replaces the descriptor for `vci`.
    pub fn set_descriptor(&mut self, vci: Vci, desc: WindowDescriptor) {
        self.windows.insert(vci, desc);
    }

    /// Current descriptor for `vci`.
    pub fn descriptor(&self, vci: Vci) -> Option<WindowDescriptor> {
        self.windows.get(&vci).copied()
    }

    /// Blits one parsed tile frame. Geometry is settled per tile, not
    /// per pixel: the tile's rectangle is cut to screen ∩ clip once and
    /// tested against the windows above once; only a tile some window
    /// partly covers is walked pixel by pixel.
    fn blit_frame(&mut self, now: u64, frame: &TileFrameView<'_>, vci: Vci) {
        let desc = match self.windows.get(&vci) {
            Some(desc) if desc.visible => *desc,
            _ => {
                self.stats.tiles_discarded += frame.tile_count() as u64;
                return;
            }
        };
        self.stats
            .latency
            .record(now.saturating_sub(frame.timestamp));
        let bounds = Rect::new(0, 0, self.width, self.height).intersect(&desc.clip);
        // The windows above this one that can hide any of its pixels.
        let mut occluders = std::mem::take(&mut self.occluders);
        occluders.extend(
            self.windows
                .values()
                .filter(|w| w.visible && !w.overlay && w.z > desc.z)
                .map(|w| w.clip)
                .filter(|clip| !clip.intersect(&bounds).is_empty()),
        );
        for (tx, ty, data) in frame.tiles() {
            // A headless display has nowhere to put pixels: it checks
            // that the payload would decode and leaves it at that.
            let decoded;
            let pixels: Option<&[u8]> = match frame.coding {
                TileCoding::Raw => (data.len() == TILE_PIXELS).then_some(data),
                TileCoding::Compressed if self.headless => {
                    codec::validate_tile(data).ok().map(|()| &[][..])
                }
                TileCoding::Compressed => match codec::decode_tile(data, frame.quality) {
                    Ok(p) => {
                        decoded = p;
                        Some(&decoded[..])
                    }
                    Err(_) => None,
                },
            };
            let Some(pixels) = pixels else {
                self.stats.frames_bad += 1;
                continue;
            };
            let dim = TILE_DIM as i32;
            let tile = Rect::new(desc.dst_x + tx as i32, desc.dst_y + ty as i32, dim, dim);
            let written = self.blit_tile(&tile, &tile.intersect(&bounds), &occluders, pixels);
            self.stats.pixels_written += written;
            if written > 0 {
                self.stats.tiles_blitted += 1;
            } else {
                self.stats.tiles_discarded += 1;
            }
        }
        occluders.clear();
        self.occluders = occluders;
    }

    /// Writes the part of `tile` inside `target` (already cut to screen
    /// and clip) that no occluder hides; returns the pixels written.
    fn blit_tile(&mut self, tile: &Rect, target: &Rect, occluders: &[Rect], pixels: &[u8]) -> u64 {
        if target.is_empty() {
            return 0;
        }
        let mut partly_hidden = false;
        for o in occluders {
            let hidden = o.intersect(target);
            if hidden == *target {
                return 0;
            }
            partly_hidden |= !hidden.is_empty();
        }
        let mut written = 0;
        for py in target.y..target.y + target.h {
            let src = ((py - tile.y) * tile.w + (target.x - tile.x)) as usize;
            let dst = (py * self.width + target.x) as usize;
            if !partly_hidden {
                if !self.headless {
                    self.framebuffer[dst..dst + target.w as usize]
                        .copy_from_slice(&pixels[src..src + target.w as usize]);
                }
                written += target.w as u64;
                continue;
            }
            for col in 0..target.w as usize {
                if occluders
                    .iter()
                    .any(|o| o.contains(target.x + col as i32, py))
                {
                    continue;
                }
                if !self.headless {
                    self.framebuffer[dst + col] = pixels[src + col];
                }
                written += 1;
            }
        }
        written
    }
}

impl CellSink for Display {
    fn deliver(&mut self, sim: &mut Simulator, cell: Cell) {
        let vci = cell.vci();
        // Zero-copy receive: an uncorrupted frame arrives as a view of
        // the camera's own arena buffer and is parsed and blitted in
        // place — nothing is allocated per frame or per tile.
        let at = match self.reasm.iter().position(|(v, _)| *v == vci) {
            Some(at) => at,
            None => {
                self.reasm.push((vci, Reassembler::default()));
                self.reasm.len() - 1
            }
        };
        let result = self.reasm[at].1.push_frame(&cell);
        match result {
            None => {}
            Some(Ok(lease)) => match TileFrameView::parse(&lease) {
                Ok(frame) => self.blit_frame(sim.now(), &frame, vci),
                Err(_) => self.stats.frames_bad += 1,
            },
            Some(Err(_)) => self.stats.frames_bad += 1,
        }
    }
}

/// The window manager: the process that owns the descriptor table.
///
/// It never touches pixel data except through its own whole-screen
/// descriptor — exactly how the paper removes the multiplexing code of
/// conventional window systems.
pub struct WindowManager {
    display: Rc<RefCell<Display>>,
    next_z: u32,
    /// The VCI the manager itself draws decorations on.
    pub wm_vci: Vci,
}

impl WindowManager {
    /// Creates a window manager over `display`, reserving `wm_vci` for
    /// its own whole-screen drawing channel.
    pub fn new(display: Rc<RefCell<Display>>, wm_vci: Vci) -> Self {
        let (w, h) = {
            let d = display.borrow();
            (d.width(), d.height())
        };
        let wm = WindowManager {
            display,
            next_z: 1,
            wm_vci,
        };
        // The manager's own descriptor: whole screen, permanently on top.
        wm.display.borrow_mut().set_descriptor(
            wm_vci,
            WindowDescriptor {
                dst_x: 0,
                dst_y: 0,
                clip: Rect::new(0, 0, w, h),
                z: u32::MAX,
                visible: true,
                overlay: true,
            },
        );
        wm
    }

    /// Creates a window for `vci` at the given screen rectangle and puts
    /// it on top.
    pub fn create(&mut self, vci: Vci, rect: Rect) {
        let z = self.bump_z();
        self.display.borrow_mut().set_descriptor(
            vci,
            WindowDescriptor {
                dst_x: rect.x,
                dst_y: rect.y,
                clip: rect,
                z,
                visible: true,
                overlay: false,
            },
        );
    }

    /// Moves a window so its origin lands at `(x, y)`.
    pub fn move_to(&mut self, vci: Vci, x: i32, y: i32) {
        self.update(vci, |d| {
            d.clip.x = x;
            d.clip.y = y;
            d.dst_x = x;
            d.dst_y = y;
        });
    }

    /// Resizes a window (clip only; the stream keeps its own geometry).
    pub fn resize(&mut self, vci: Vci, w: i32, h: i32) {
        self.update(vci, |d| {
            d.clip.w = w;
            d.clip.h = h;
        });
    }

    /// Raises a window above all others (except the manager).
    pub fn raise(&mut self, vci: Vci) {
        let z = self.bump_z();
        self.update(vci, |d| d.z = z);
    }

    /// Lowers a window beneath all others.
    pub fn lower(&mut self, vci: Vci) {
        self.update(vci, |d| d.z = 0);
    }

    fn bump_z(&mut self) -> u32 {
        let z = self.next_z;
        self.next_z += 1;
        z
    }

    fn update(&mut self, vci: Vci, f: impl FnOnce(&mut WindowDescriptor)) {
        let mut d = self.display.borrow_mut();
        if let Some(mut desc) = d.descriptor(vci) {
            f(&mut desc);
            d.set_descriptor(vci, desc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TileFrame;
    use pegasus_atm::aal5::Segmenter;
    use proptest::prelude::*;

    /// The blit as it stood when every pixel was tested on its own
    /// against the screen, the clip and every window above: the
    /// definition the per-tile geometry must reproduce, counter for
    /// counter and pixel for pixel.
    struct ReferenceDisplay {
        width: i32,
        height: i32,
        framebuffer: Vec<u8>,
        windows: HashMap<Vci, WindowDescriptor>,
        stats: DisplayStats,
    }

    impl ReferenceDisplay {
        fn occluded(&self, px: i32, py: i32, z: u32) -> bool {
            self.windows
                .values()
                .any(|w| w.visible && !w.overlay && w.z > z && w.clip.contains(px, py))
        }

        fn blit_frame(&mut self, frame: &TileFrame, vci: Vci) {
            let Some(desc) = self.windows.get(&vci).copied() else {
                self.stats.tiles_discarded += frame.tiles.len() as u64;
                return;
            };
            if !desc.visible {
                self.stats.tiles_discarded += frame.tiles.len() as u64;
                return;
            }
            for (tx, ty, data) in &frame.tiles {
                let pixels: Vec<u8> = match frame.coding {
                    TileCoding::Raw => {
                        if data.len() != 64 {
                            self.stats.frames_bad += 1;
                            continue;
                        }
                        data.clone()
                    }
                    TileCoding::Compressed => match codec::decode_tile(data, frame.quality) {
                        Ok(p) => p.to_vec(),
                        Err(_) => {
                            self.stats.frames_bad += 1;
                            continue;
                        }
                    },
                };
                let mut wrote = false;
                for row in 0..8i32 {
                    for col in 0..8i32 {
                        let px = desc.dst_x + *tx as i32 + col;
                        let py = desc.dst_y + *ty as i32 + row;
                        if px < 0 || px >= self.width || py < 0 || py >= self.height {
                            continue;
                        }
                        if !desc.clip.contains(px, py) || self.occluded(px, py, desc.z) {
                            continue;
                        }
                        self.framebuffer[(py * self.width + px) as usize] =
                            pixels[(row * 8 + col) as usize];
                        self.stats.pixels_written += 1;
                        wrote = true;
                    }
                }
                if wrote {
                    self.stats.tiles_blitted += 1;
                } else {
                    self.stats.tiles_discarded += 1;
                }
            }
        }
    }

    fn counters(s: &DisplayStats) -> (u64, u64, u64, u64) {
        (
            s.tiles_blitted,
            s.tiles_discarded,
            s.pixels_written,
            s.frames_bad,
        )
    }

    /// Sends a tile frame straight into the display as cells.
    fn send_frame(
        display: &Rc<RefCell<Display>>,
        sim: &mut Simulator,
        vci: Vci,
        frame: &TileFrame,
    ) {
        let cells = Segmenter::new(vci).segment(&frame.encode()).unwrap();
        for cell in cells {
            display.borrow_mut().deliver(sim, cell);
        }
    }

    fn solid_frame(value: u8, ts: u64) -> TileFrame {
        TileFrame {
            coding: TileCoding::Raw,
            quality: 0,
            frame_seq: 0,
            timestamp: ts,
            tiles: vec![(0, 0, vec![value; 64])],
        }
    }

    #[test]
    fn tile_lands_at_window_offset() {
        let display = Display::shared(64, 64);
        let mut wm = WindowManager::new(display.clone(), 1);
        wm.create(5, Rect::new(16, 24, 32, 32));
        let mut sim = Simulator::new();
        send_frame(&display, &mut sim, 5, &solid_frame(200, 0));
        let d = display.borrow();
        assert_eq!(d.pixel(16, 24), 200);
        assert_eq!(d.pixel(23, 31), 200);
        assert_eq!(d.pixel(15, 24), 0, "outside the window untouched");
        assert_eq!(d.stats.tiles_blitted, 1);
        assert_eq!(d.stats.pixels_written, 64);
    }

    #[test]
    fn unknown_vci_discarded() {
        let display = Display::shared(32, 32);
        let mut sim = Simulator::new();
        send_frame(&display, &mut sim, 99, &solid_frame(1, 0));
        assert_eq!(display.borrow().stats.tiles_discarded, 1);
        assert_eq!(display.borrow().stats.tiles_blitted, 0);
    }

    #[test]
    fn clipping_cuts_tiles() {
        let display = Display::shared(64, 64);
        let mut wm = WindowManager::new(display.clone(), 1);
        // Window only 4 pixels wide: half of each 8-wide tile clipped.
        wm.create(5, Rect::new(0, 0, 4, 64));
        let mut sim = Simulator::new();
        send_frame(&display, &mut sim, 5, &solid_frame(9, 0));
        let d = display.borrow();
        assert_eq!(d.stats.pixels_written, 32);
        assert_eq!(d.pixel(3, 0), 9);
        assert_eq!(d.pixel(4, 0), 0);
    }

    #[test]
    fn higher_window_occludes_lower() {
        let display = Display::shared(64, 64);
        let mut wm = WindowManager::new(display.clone(), 1);
        wm.create(5, Rect::new(0, 0, 8, 8)); // bottom
        wm.create(6, Rect::new(4, 0, 8, 8)); // top, overlaps right half
        let mut sim = Simulator::new();
        send_frame(&display, &mut sim, 6, &solid_frame(50, 0));
        send_frame(&display, &mut sim, 5, &solid_frame(200, 0));
        let d = display.borrow();
        assert_eq!(d.pixel(0, 0), 200, "unoccluded part painted");
        assert_eq!(
            d.pixel(4, 0),
            50,
            "occluded part keeps the top window's pixels"
        );
    }

    #[test]
    fn raise_changes_occlusion() {
        let display = Display::shared(64, 64);
        let mut wm = WindowManager::new(display.clone(), 1);
        wm.create(5, Rect::new(0, 0, 8, 8));
        wm.create(6, Rect::new(0, 0, 8, 8)); // fully covers 5
        wm.raise(5);
        let mut sim = Simulator::new();
        send_frame(&display, &mut sim, 5, &solid_frame(123, 0));
        assert_eq!(display.borrow().pixel(0, 0), 123);
        // And 6 is now occluded.
        send_frame(&display, &mut sim, 6, &solid_frame(77, 0));
        assert_eq!(display.borrow().pixel(0, 0), 123);
        assert_eq!(display.borrow().stats.tiles_discarded, 1);
    }

    #[test]
    fn lower_pushes_window_beneath() {
        let display = Display::shared(64, 64);
        let mut wm = WindowManager::new(display.clone(), 1);
        wm.create(5, Rect::new(0, 0, 8, 8));
        wm.create(6, Rect::new(0, 0, 8, 8));
        wm.lower(6);
        let mut sim = Simulator::new();
        send_frame(&display, &mut sim, 6, &solid_frame(77, 0));
        assert_eq!(
            display.borrow().pixel(0, 0),
            0,
            "lowered window fully hidden"
        );
    }

    #[test]
    fn move_relocates_subsequent_tiles() {
        let display = Display::shared(64, 64);
        let mut wm = WindowManager::new(display.clone(), 1);
        wm.create(5, Rect::new(0, 0, 8, 8));
        let mut sim = Simulator::new();
        send_frame(&display, &mut sim, 5, &solid_frame(40, 0));
        wm.move_to(5, 32, 32);
        send_frame(&display, &mut sim, 5, &solid_frame(41, 0));
        let d = display.borrow();
        assert_eq!(d.pixel(0, 0), 40, "old pixels remain until repainted");
        assert_eq!(d.pixel(32, 32), 41);
    }

    #[test]
    fn wm_draws_decorations_through_whole_screen_descriptor() {
        // Graphics and video unified: the WM paints a title bar with the
        // same tile frames a camera would send, on its own VCI, over all
        // windows.
        let display = Display::shared(64, 64);
        let mut wm = WindowManager::new(display.clone(), 1);
        wm.create(5, Rect::new(0, 0, 32, 32));
        let mut sim = Simulator::new();
        send_frame(&display, &mut sim, 5, &solid_frame(100, 0));
        // Title bar tile at (0,0) painted by the WM wins over window 5.
        send_frame(&display, &mut sim, wm.wm_vci, &solid_frame(255, 0));
        assert_eq!(display.borrow().pixel(0, 0), 255);
        // The overlay does not occlude: the window may repaint, and the
        // manager re-draws its decoration afterwards (expose handling).
        send_frame(&display, &mut sim, 5, &solid_frame(100, 0));
        assert_eq!(display.borrow().pixel(0, 0), 100);
        send_frame(&display, &mut sim, wm.wm_vci, &solid_frame(255, 0));
        assert_eq!(display.borrow().pixel(0, 0), 255);
    }

    #[test]
    fn compressed_tiles_blit() {
        let display = Display::shared(64, 64);
        let mut wm = WindowManager::new(display.clone(), 1);
        wm.create(5, Rect::new(0, 0, 64, 64));
        let pixels = [180u8; 64];
        let frame = TileFrame {
            coding: TileCoding::Compressed,
            quality: 80,
            frame_seq: 0,
            timestamp: 0,
            tiles: vec![(8, 8, codec::encode_tile(&pixels, 80))],
        };
        let mut sim = Simulator::new();
        send_frame(&display, &mut sim, 5, &frame);
        let v = display.borrow().pixel(12, 12) as i32;
        assert!((v - 180).abs() <= 3, "decoded pixel {v}");
    }

    #[test]
    fn corrupt_cell_poisons_only_its_frame() {
        let display = Display::shared(64, 64);
        let mut wm = WindowManager::new(display.clone(), 1);
        wm.create(5, Rect::new(0, 0, 64, 64));
        let mut sim = Simulator::new();
        let mut cells = Segmenter::new(5)
            .segment(&solid_frame(7, 0).encode())
            .unwrap();
        cells[0].payload_mut()[3] ^= 0xFF;
        for cell in cells {
            display.borrow_mut().deliver(&mut sim, cell);
        }
        assert_eq!(display.borrow().stats.frames_bad, 1);
        assert_eq!(display.borrow().stats.tiles_blitted, 0);
        // Next frame is unaffected.
        send_frame(&display, &mut sim, 5, &solid_frame(8, 0));
        assert_eq!(display.borrow().stats.tiles_blitted, 1);
    }

    #[test]
    fn headless_display_matches_framebuffer_stats() {
        // Same traffic into a framebuffer display and a headless one:
        // every counter identical, including the clip/occlusion-driven
        // blit-vs-discard verdicts and the verdict on each compressed
        // payload, which the headless display reaches without decoding.
        let with_fb = Display::shared(64, 64);
        let headless = Display::shared_headless(64, 64);
        for d in [&with_fb, &headless] {
            let mut wm = WindowManager::new(d.clone(), 1);
            wm.create(5, Rect::new(0, 0, 4, 64)); // clips half of each tile
            wm.create(6, Rect::new(0, 0, 8, 8)); // occludes window 5's corner
        }
        let good = codec::encode_tile(&[180u8; 64], 60);
        let mut overlong = Vec::new();
        for _ in 0..65 {
            overlong.extend_from_slice(&[0, 0, 1]);
        }
        overlong.push(0xFF);
        let compressed = TileFrame {
            coding: TileCoding::Compressed,
            quality: 60,
            frame_seq: 0,
            timestamp: 0,
            tiles: vec![
                (0, 0, good.clone()),
                (0, 8, good[..good.len() - 1].to_vec()), // no end of block
                (0, 16, good[..2].to_vec()),             // cut mid-token
                (0, 24, Vec::new()),
                (0, 32, overlong),
                (0, 40, vec![0xFF]), // no coefficients at all: valid
                (200, 200, good),    // valid, off screen
            ],
        };
        let mut sim = Simulator::new();
        for d in [&with_fb, &headless] {
            send_frame(d, &mut sim, 5, &solid_frame(9, 0));
            send_frame(d, &mut sim, 6, &solid_frame(1, 0));
            send_frame(d, &mut sim, 99, &solid_frame(2, 0)); // unknown VCI
            send_frame(d, &mut sim, 5, &compressed);
            send_frame(d, &mut sim, 6, &compressed);
            send_frame(d, &mut sim, 99, &compressed);
        }
        let (a, b) = (with_fb.borrow(), headless.borrow());
        assert_eq!(counters(&a.stats), counters(&b.stats));
        assert_eq!(a.stats.frames_bad, 8, "four bad payloads, sent twice");
        assert_eq!(
            a.stats.latency.clone().summarize(),
            b.stats.latency.clone().summarize()
        );
    }

    #[test]
    fn latency_recorded_from_trailer_timestamp() {
        let display = Display::shared(64, 64);
        let mut wm = WindowManager::new(display.clone(), 1);
        wm.create(5, Rect::new(0, 0, 64, 64));
        let mut sim = Simulator::new();
        let display2 = display.clone();
        sim.schedule_at(10_000, move |sim| {
            send_frame(&display2, sim, 5, &solid_frame(1, 4_000));
        });
        sim.run();
        let mut d = display.borrow_mut();
        assert_eq!(d.stats.latency.percentile(50.0), Some(6_000));
    }

    /// A window somewhere around a 40×32 screen — on it, across an edge
    /// or off it — whose clip sits near its stream origin, as the window
    /// manager would put it, though not exactly on it; now and then with
    /// nothing inside the clip.
    fn window() -> impl Strategy<Value = WindowDescriptor> {
        (
            (-8i32..24, -8i32..16),
            (-4i32..5, -4i32..5, -2i32..44, -2i32..36),
            0u32..6,
            0u8..64,
        )
            .prop_map(
                |((dst_x, dst_y), (dx, dy, w, h), z, flags)| WindowDescriptor {
                    dst_x,
                    dst_y,
                    clip: Rect::new(dst_x + dx, dst_y + dy, w, h),
                    z,
                    visible: flags & 15 != 0,
                    overlay: flags & 48 == 48,
                },
            )
    }

    #[test]
    fn prop_blit_matches_the_per_pixel_reference() {
        let cases = (
            proptest::collection::vec(window(), 1..7),
            proptest::collection::vec(
                (
                    0usize..16,
                    any::<bool>(),
                    proptest::collection::vec((0u16..32, 0u16..24, any::<u8>(), 0u8..16), 1..8),
                ),
                1..5,
            ),
        );
        // Tiles the reference wrote whole, in part, and not at all, and
        // tiles it wrote in part *because* a window above hid the rest:
        // the generator has to reach every verdict the blit can give.
        let (mut whole, mut part, mut none) = (0, 0, 0);
        let (mut part_hidden, mut all_hidden) = (0, 0);
        let config = ProptestConfig::with_cases(256);
        proptest::run_cases(
            "prop_blit_matches_the_per_pixel_reference",
            &config,
            |rng| {
                let (windows, frames) = cases.new_value(rng);
                let fb = Display::shared(40, 32);
                let headless = Display::shared_headless(40, 32);
                let mut reference = ReferenceDisplay {
                    width: 40,
                    height: 32,
                    framebuffer: vec![0; 40 * 32],
                    windows: HashMap::new(),
                    stats: DisplayStats::default(),
                };
                for (i, w) in windows.iter().enumerate() {
                    let vci = 10 + i as Vci;
                    fb.borrow_mut().set_descriptor(vci, *w);
                    headless.borrow_mut().set_descriptor(vci, *w);
                    reference.windows.insert(vci, *w);
                }
                let mut sim = Simulator::new();
                for (target, compressed, tiles) in frames {
                    // One frame in sixteen is on a VCI nobody owns.
                    let vci = match target {
                        15 => 9,
                        _ => 10 + (target % windows.len()) as Vci,
                    };
                    let tiles = tiles
                        .into_iter()
                        .map(|(x, y, value, damage)| {
                            let mut pixels = [value; 64];
                            pixels[(x as usize + y as usize) % 64] ^= 0x5A;
                            let mut data = if compressed {
                                codec::encode_tile(&pixels, 70)
                            } else {
                                pixels.to_vec()
                            };
                            // One payload in sixteen is cut short, one grown.
                            match damage {
                                0 => data.truncate(data.len() / 2),
                                1 => data.extend_from_slice(&[0; 3]),
                                _ => {}
                            }
                            (x, y, data)
                        })
                        .collect();
                    let frame = TileFrame {
                        coding: if compressed {
                            TileCoding::Compressed
                        } else {
                            TileCoding::Raw
                        },
                        quality: 70,
                        frame_seq: 0,
                        timestamp: 0,
                        tiles,
                    };
                    send_frame(&fb, &mut sim, vci, &frame);
                    send_frame(&headless, &mut sim, vci, &frame);
                    for tile in &frame.tiles {
                        let before = counters(&reference.stats);
                        let one = TileFrame {
                            tiles: vec![tile.clone()],
                            ..frame.clone()
                        };
                        reference.blit_frame(&one, vci);
                        let after = counters(&reference.stats);
                        match after.2 - before.2 {
                            64 => whole += 1,
                            0 => none += 1,
                            _ => part += 1,
                        }
                        // Of the pixels screen and clip let through, how
                        // many a window above hides.
                        let (mut inside, mut hidden) = (0, 0);
                        if let Some(d) = reference.windows.get(&vci) {
                            for i in 0..64 {
                                let (px, py) = (
                                    d.dst_x + tile.0 as i32 + i % 8,
                                    d.dst_y + tile.1 as i32 + i / 8,
                                );
                                if Rect::new(0, 0, 40, 32).contains(px, py)
                                    && d.clip.contains(px, py)
                                {
                                    inside += 1;
                                    hidden += u32::from(reference.occluded(px, py, d.z));
                                }
                            }
                        }
                        part_hidden += u32::from(0 < hidden && hidden < inside);
                        all_hidden += u32::from(0 < hidden && hidden == inside);
                    }
                }
                let (fb, headless) = (fb.borrow(), headless.borrow());
                prop_assert_eq!(counters(&fb.stats), counters(&reference.stats));
                prop_assert_eq!(counters(&headless.stats), counters(&reference.stats));
                prop_assert_eq!(&fb.framebuffer, &reference.framebuffer);
                Ok(())
            },
        );
        for (verdict, n) in [("whole", whole), ("part", part), ("none", none)] {
            assert!(n >= 100, "only {n} tiles written {verdict}");
        }
        assert!(part_hidden >= 50, "only {part_hidden} tiles partly hidden");
        assert!(all_hidden >= 30, "only {all_hidden} tiles wholly hidden");
    }
}
