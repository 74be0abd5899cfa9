//! The ATM camera (§2.1, Figure 2).
//!
//! "The ATM camera directly produces digital video as a stream of ATM
//! cells": scan lines are digitized at line rate; when eight lines have
//! been buffered they are encoded as 8×8 tiles; tiles are packed into
//! AAL5 frames with an (x, y, timestamp) trailer and segmented into
//! cells on the data virtual circuit. The camera optionally compresses
//! tiles with the Motion-JPEG codec; "the device to be used is
//! identified when the virtual circuit is established".
//!
//! The crucial latency property — "the use of tiles for video reduces
//! latency in several places from a 'frame time' (33 or 40 ms) to a
//! 'tile time' (30 to 40 µs)" — is captured by the two
//! [`Granularity`] settings: [`Granularity::TileRow`] ships each row of
//! tiles the moment its eight scan lines exist, while
//! [`Granularity::Frame`] models a conventional frame-grabber that
//! buffers the whole frame first. Experiment E1 compares them.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_atm::aal5::Segmenter;
use pegasus_atm::cell::{Cell, Vci};
use pegasus_atm::credit::CreditRef;
use pegasus_atm::link::Link;
use pegasus_sim::arena::{Arena, FrameBuf, FrameBufMut};
use pegasus_sim::time::{Ns, SEC};
use pegasus_sim::{Simulator, Train};

use crate::codec;
use crate::tile::{Tile, TileCoding, TileFrameWriter, TILE_DIM};
use crate::video::SyntheticVideo;

/// Raw or compressed output, fixed at VC-establishment time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoMode {
    /// 64 bytes per tile on the wire.
    Raw,
    /// Motion-JPEG at the given quality (1–100).
    Mjpeg(u8),
}

/// When digitized pixels leave the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Ship every 8-line tile row as soon as it is scanned (the DAN way).
    TileRow,
    /// Buffer the whole frame, then ship (the frame-grabber baseline).
    Frame,
}

/// Camera configuration.
#[derive(Debug, Clone, Copy)]
pub struct CameraConfig {
    /// Frames per second (25 for PAL-ish, 30 for NTSC-ish).
    pub fps: u32,
    /// Output coding.
    pub mode: VideoMode,
    /// Emission granularity.
    pub granularity: Granularity,
    /// Max tiles packed into one AAL5 frame.
    pub tiles_per_frame: usize,
    /// Hardware pipeline latency from scan completion to first cell
    /// offered to the link (digitizer + tiler + compressor).
    pub pipeline_latency: Ns,
}

impl Default for CameraConfig {
    fn default() -> Self {
        CameraConfig {
            fps: 25,
            mode: VideoMode::Mjpeg(50),
            granularity: Granularity::TileRow,
            tiles_per_frame: 8,
            pipeline_latency: 10_000, // 10 µs through the device pipeline
        }
    }
}

/// Counters the camera maintains.
#[derive(Debug, Default, Clone)]
pub struct CameraStats {
    /// Video frames fully scanned.
    pub frames_captured: u64,
    /// Tiles emitted.
    pub tiles_sent: u64,
    /// AAL5 tile-frames emitted.
    pub aal5_frames: u64,
    /// AAL5 tile-frames withheld because the credit window was empty —
    /// backpressure degrading at frame granularity, never mid-frame.
    pub frames_skipped: u64,
    /// Payload bytes before AAL5 overhead.
    pub payload_bytes: u64,
    /// Raw pixel bytes digitized.
    pub raw_bytes: u64,
}

impl CameraStats {
    /// Achieved compression ratio (raw ÷ payload).
    pub fn compression_ratio(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.payload_bytes as f64
        }
    }
}

/// One tile row between scan and emission.
struct Row {
    /// The frame the row belongs to; rows share it by refcount.
    image: FrameBuf,
    row: usize,
    frame_seq: u32,
    /// The timestamp carried in the tile-frame trailer.
    scanned_at: Ns,
}

/// The ATM camera device.
///
/// The data path is allocation-free at steady state: the CCD image is
/// the one shared rendering of its picture
/// ([`SyntheticVideo::frame_leased`]), drawn into a buffer leased from
/// the camera's [`Arena`] only when no camera holds one, tile frames
/// are written directly into further leased buffers (no intermediate
/// `TileFrame` struct, no per-tile `Vec`s), and AAL5 segmentation takes
/// zero-copy views of those buffers — the switch fabric forwards the
/// very bytes the encoder wrote.
pub struct Camera {
    video: SyntheticVideo,
    cfg: CameraConfig,
    vci: Vci,
    tx: Rc<RefCell<Link>>,
    running: bool,
    frame_no: u32,
    /// The buffer pool frames and tile frames are leased from.
    arena: Arena,
    /// Scratch cell train reused across sends.
    cells: Vec<Cell>,
    /// The circuit's credit window, when flow control is on: a whole
    /// tile-frame's cells are acquired before any of them transmit.
    credit: Option<CreditRef>,
    /// Per-run statistics.
    pub stats: CameraStats,
}

impl Camera {
    /// Creates a camera producing `video` on virtual circuit `vci`,
    /// transmitting through `tx` (the endpoint link into the switch).
    pub fn new(
        video: SyntheticVideo,
        cfg: CameraConfig,
        vci: Vci,
        tx: Rc<RefCell<Link>>,
    ) -> Rc<RefCell<Camera>> {
        Rc::new(RefCell::new(Camera {
            video,
            cfg,
            vci,
            tx,
            running: false,
            frame_no: 0,
            arena: Arena::new(),
            cells: Vec::new(),
            credit: None,
            stats: CameraStats::default(),
        }))
    }

    /// Puts the data circuit under `credit` flow control: every AAL5
    /// frame's cells are acquired all-or-nothing before transmission,
    /// and a frame that cannot get credits is skipped whole.
    pub fn set_credit(&mut self, credit: CreditRef) {
        self.credit = Some(credit);
    }

    /// Changes the frame rate (the control-VC `SetRate` command). Takes
    /// effect at the next frame tick — the loop reads the period fresh.
    pub fn set_fps(&mut self, fps: u32) {
        assert!(fps > 0, "a camera cannot run at 0 fps");
        self.cfg.fps = fps;
    }

    /// The current configured frame rate.
    pub fn fps(&self) -> u32 {
        self.cfg.fps
    }

    /// The camera's buffer arena (for lease-accounting assertions).
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Frame period from the configured rate.
    pub fn frame_period(&self) -> Ns {
        SEC / self.cfg.fps as u64
    }

    /// Scan time of one line.
    pub fn line_period(&self) -> Ns {
        self.frame_period() / self.video.height as u64
    }

    /// Changes the coding quality (the control-VC `SetQuality` command).
    pub fn set_mode(&mut self, mode: VideoMode) {
        self.cfg.mode = mode;
    }

    /// Whether the camera is currently capturing.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Starts capture; frames are scanned and emitted until
    /// [`Camera::stop`] is called.
    ///
    /// The frame loop is one chained handler rescheduled by the engine
    /// every frame period, and a frame's rows queue on one train — no
    /// allocations per frame or per row. Loop and train belong to the
    /// simulator, not the camera: rows already scanned keep the camera
    /// alive until they have left it, and dropping the simulator frees
    /// everything.
    pub fn start(cam: &Rc<RefCell<Camera>>, sim: &mut Simulator) {
        {
            let mut c = cam.borrow_mut();
            if c.running {
                return;
            }
            c.running = true;
        }
        let emitter = cam.clone();
        let rows = Train::new(0, move |sim: &mut Simulator, row: Row| {
            emitter.borrow_mut().emit_row(sim, row)
        });
        let cam = cam.clone();
        sim.schedule_chain(move |sim| Self::frame_tick(&cam, &rows, sim));
    }

    /// Stops capture after the current frame.
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Scans one frame and queues its row emissions; returns the next
    /// frame's start time while running.
    fn frame_tick(cam: &Rc<RefCell<Camera>>, rows: &Train<Row>, sim: &mut Simulator) -> Option<Ns> {
        let mut c = cam.borrow_mut();
        if !c.running {
            return None;
        }
        let frame_seq = c.frame_no;
        c.frame_no += 1;
        c.stats.frames_captured += 1;
        // The frame the CCD will scan: the buffer every camera showing
        // this picture shares, rendered into recycled arena storage only
        // if nobody holds one. Row emissions share it by refcount.
        let image = c.video.frame_leased(frame_seq, &c.arena);
        let (height, line_period, cfg) = (c.video.height, c.line_period(), c.cfg);
        let frame_start = sim.now();
        let frame_scan_done = frame_start + height as u64 * line_period;
        for row in 0..height / 8 {
            // The row's eight lines finish digitizing here...
            let scanned_at = frame_start + ((row + 1) * 8) as u64 * line_period;
            // ...and leave the device here.
            let emit_at = match cfg.granularity {
                Granularity::TileRow => scanned_at,
                Granularity::Frame => frame_scan_done,
            } + cfg.pipeline_latency;
            rows.push(
                sim,
                emit_at,
                Row {
                    image: image.clone(),
                    row,
                    frame_seq,
                    scanned_at,
                },
            );
        }
        // Next frame.
        Some(frame_start + c.frame_period())
    }

    /// Encodes and transmits one row of tiles. Tile payloads are
    /// encoded straight into a leased buffer, which AAL5 then segments
    /// by reference — no copy from encoder to wire.
    fn emit_row(&mut self, sim: &mut Simulator, row: Row) {
        let Row {
            image,
            row,
            frame_seq,
            scanned_at,
        } = row;
        let tiles_x = self.video.tiles_x();
        let (coding, quality) = match self.cfg.mode {
            VideoMode::Raw => (TileCoding::Raw, 0),
            VideoMode::Mjpeg(q) => (TileCoding::Compressed, q),
        };
        let mut writer: Option<TileFrameWriter<FrameBufMut>> = None;
        let width = self.video.width;
        for tx_idx in 0..tiles_x {
            let w = writer.get_or_insert_with(|| {
                TileFrameWriter::begin(self.arena.lease(), coding, quality, frame_seq, scanned_at)
            });
            let (x, y) = ((tx_idx * TILE_DIM) as u16, (row * TILE_DIM) as u16);
            match self.cfg.mode {
                VideoMode::Raw => {
                    w.push_tile(x, y, &Tile::from_image(&image, width, tx_idx, row).pixels)
                }
                // Coded from the image where it lies: a tile this thread
                // has coded before is never gathered.
                VideoMode::Mjpeg(q) => w.push_tile_with(x, y, |out| {
                    codec::encode_tile_from(&image, width, tx_idx, row, q, out)
                }),
            }
            self.stats.raw_bytes += 64;
            self.stats.tiles_sent += 1;
            if w.tiles() == self.cfg.tiles_per_frame || tx_idx == tiles_x - 1 {
                let frame = writer.take().expect("writer active").finish().freeze();
                self.send_frame(sim, &frame);
            }
        }
    }

    fn send_frame(&mut self, sim: &mut Simulator, frame: &FrameBuf) {
        Segmenter::new(self.vci)
            .segment_frame(&frame.view_all(), &mut self.cells)
            .expect("tile frames are far below the AAL5 maximum");
        if let Some(credit) = &self.credit {
            if !credit
                .borrow_mut()
                .try_acquire_at(sim.now(), self.cells.len() as u64)
            {
                // No credits for the whole frame: hold it at the source.
                // Dropping a complete tile-frame costs one frame's tiles;
                // sending part of one would poison reassembly downstream.
                self.cells.clear();
                self.stats.frames_skipped += 1;
                return;
            }
        }
        self.stats.aal5_frames += 1;
        self.stats.payload_bytes += frame.len() as u64;
        let mut tx = self.tx.borrow_mut();
        for cell in self.cells.drain(..) {
            tx.send(sim, cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TileFrame;
    use crate::video::Scene;
    use pegasus_atm::aal5::Reassembler;
    use pegasus_atm::cell::CELL_SIZE;
    use pegasus_atm::link::CaptureSink;
    use pegasus_sim::time::MS;

    fn capture_setup(cfg: CameraConfig) -> (Rc<RefCell<Camera>>, Rc<RefCell<CaptureSink>>) {
        let sink = CaptureSink::shared();
        let tx = Rc::new(RefCell::new(Link::new(100_000_000, 1_000, sink.clone())));
        let video = SyntheticVideo::new(64, 48, Scene::MovingGradient, 7);
        let cam = Camera::new(video, cfg, 42, tx);
        (cam, sink)
    }

    fn reassemble_frames(sink: &Rc<RefCell<CaptureSink>>) -> Vec<(u64, TileFrame)> {
        let mut r = Reassembler::new();
        let mut out = Vec::new();
        for (t, cell) in &sink.borrow().arrivals {
            if let Some(res) = r.push(cell) {
                let frame = TileFrame::decode(&res.expect("CRC clean")).expect("well formed");
                out.push((*t, frame));
            }
        }
        out
    }

    #[test]
    fn one_frame_produces_all_tiles() {
        let (cam, sink) = capture_setup(CameraConfig {
            mode: VideoMode::Raw,
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(39 * MS); // less than one frame period
        cam.borrow_mut().stop();
        sim.run_until(200 * MS);
        // 64×48 = 8×6 tiles.
        assert_eq!(cam.borrow().stats.tiles_sent, 48);
        let frames = reassemble_frames(&sink);
        let tiles: usize = frames.iter().map(|(_, f)| f.tiles.len()).sum();
        assert_eq!(tiles, 48);
        // All raw tiles are 64 bytes.
        for (_, f) in &frames {
            assert_eq!(f.coding, TileCoding::Raw);
            for (_, _, d) in &f.tiles {
                assert_eq!(d.len(), 64);
            }
        }
    }

    #[test]
    fn rows_already_scanned_outlive_the_callers_handle() {
        // The caller drops its handle once the call is set up (as the
        // video phone does) and the camera is stopped from an event.
        // The last rows leave after the frame loop has ended: they must
        // keep the camera alive, not vanish with it.
        let (cam, sink) = capture_setup(CameraConfig {
            mode: VideoMode::Raw,
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        let stopper = cam.clone();
        sim.schedule_at(39 * MS, move |_| stopper.borrow_mut().stop());
        let watch = Rc::downgrade(&cam);
        drop(cam);
        sim.run();
        let tiles: usize = reassemble_frames(&sink)
            .iter()
            .map(|(_, f)| f.tiles.len())
            .sum();
        assert_eq!(tiles, 48, "every row of the one scanned frame");
        assert!(watch.upgrade().is_none(), "and then the camera is freed");
    }

    #[test]
    fn tiles_carry_correct_coordinates() {
        let (cam, sink) = capture_setup(CameraConfig {
            mode: VideoMode::Raw,
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(39 * MS);
        cam.borrow_mut().stop();
        sim.run();
        let frames = reassemble_frames(&sink);
        let mut seen = std::collections::HashSet::new();
        for (_, f) in &frames {
            for &(x, y, _) in &f.tiles {
                assert!(x < 64 && y < 48);
                assert_eq!(x % 8, 0);
                assert_eq!(y % 8, 0);
                assert!(seen.insert((x, y)), "duplicate tile ({x},{y})");
            }
        }
        assert_eq!(seen.len(), 48);
    }

    #[test]
    fn tile_row_granularity_ships_before_frame_completes() {
        let (cam, sink) = capture_setup(CameraConfig {
            mode: VideoMode::Raw,
            granularity: Granularity::TileRow,
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(100 * MS);
        cam.borrow_mut().stop();
        sim.run();
        let frames = reassemble_frames(&sink);
        let frame_period = cam.borrow().frame_period();
        // First tile frame of video frame 0 arrives well before the
        // frame finishes scanning.
        let first = frames.iter().find(|(_, f)| f.frame_seq == 0).unwrap();
        assert!(
            first.0 < frame_period / 2,
            "first tiles at {} should beat the 40 ms frame scan",
            first.0
        );
    }

    #[test]
    fn frame_granularity_waits_for_whole_scan() {
        let (cam, sink) = capture_setup(CameraConfig {
            mode: VideoMode::Raw,
            granularity: Granularity::Frame,
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(100 * MS);
        cam.borrow_mut().stop();
        sim.run();
        let frames = reassemble_frames(&sink);
        let frame_period = cam.borrow().frame_period();
        let first = frames.iter().find(|(_, f)| f.frame_seq == 0).unwrap();
        assert!(
            first.0 >= frame_period,
            "frame grabber cannot ship before the scan ends (got {})",
            first.0
        );
    }

    #[test]
    fn mjpeg_mode_compresses() {
        let (cam, _sink) = capture_setup(CameraConfig {
            mode: VideoMode::Mjpeg(50),
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(200 * MS);
        cam.borrow_mut().stop();
        sim.run();
        let ratio = cam.borrow().stats.compression_ratio();
        assert!(
            ratio > 2.0,
            "gradient scene should compress ≥2×, got {ratio:.2}"
        );
    }

    #[test]
    fn compressed_tiles_decode_to_plausible_pixels() {
        let (cam, sink) = capture_setup(CameraConfig {
            mode: VideoMode::Mjpeg(75),
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(39 * MS);
        cam.borrow_mut().stop();
        sim.run();
        let frames = reassemble_frames(&sink);
        let original = cam.borrow().video.frame(0);
        let width = cam.borrow().video.width;
        let mut total_psnr = 0.0;
        let mut n = 0;
        for (_, f) in &frames {
            assert_eq!(f.coding, TileCoding::Compressed);
            for &(x, y, ref d) in &f.tiles {
                let pixels = codec::decode_tile(d, f.quality).expect("valid bitstream");
                let orig = Tile::from_image(&original, width, x as usize / 8, y as usize / 8);
                if let Some(p) = codec::psnr(&orig.pixels, &pixels) {
                    total_psnr += p;
                    n += 1;
                }
            }
        }
        if n > 0 {
            let avg = total_psnr / n as f64;
            assert!(avg > 28.0, "average tile PSNR {avg:.1} dB too low");
        }
    }

    /// Four frames from one QCIF Motion-JPEG camera per scene, all on
    /// one simulator: each camera's cells as `(arrival, wire bytes)`.
    fn cell_streams(scenes: &[Scene]) -> Vec<Vec<(Ns, [u8; CELL_SIZE])>> {
        let mut sim = Simulator::new();
        let rigs: Vec<_> = scenes
            .iter()
            .map(|&scene| {
                let sink = CaptureSink::shared();
                let tx = Rc::new(RefCell::new(Link::new(155_000_000, 1_000, sink.clone())));
                let video = SyntheticVideo::qcif(scene);
                let cam = Camera::new(video, CameraConfig::default(), 42, tx);
                Camera::start(&cam, &mut sim);
                (cam, sink)
            })
            .collect();
        sim.run_until(159 * MS);
        rigs.iter().for_each(|(cam, _)| cam.borrow_mut().stop());
        sim.run();
        let wire = |(_, sink): &(_, Rc<RefCell<CaptureSink>>)| {
            let arrivals = &sink.borrow().arrivals;
            arrivals.iter().map(|(t, c)| (*t, c.to_bytes())).collect()
        };
        rigs.iter().map(wire).collect()
    }

    #[test]
    fn cameras_sharing_a_thread_emit_what_each_emits_alone() {
        // Together they take turns in one encode cache, row by row;
        // alone, each starts a cold one on a thread of its own.
        let together = cell_streams(&[Scene::MovingGradient, Scene::TestCard]);
        for (scene, together) in [Scene::MovingGradient, Scene::TestCard]
            .into_iter()
            .zip(together)
        {
            let alone = std::thread::spawn(move || cell_streams(&[scene]).remove(0));
            assert!(!together.is_empty());
            assert!(together == alone.join().expect("ran"), "{scene:?}");
        }
    }

    #[test]
    fn camera_cells_ride_the_zero_copy_lane() {
        let (cam, sink) = capture_setup(CameraConfig {
            mode: VideoMode::Raw,
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(100 * MS);
        cam.borrow_mut().stop();
        sim.run();
        // Every full-body cell references an arena frame; only the
        // synthesised pad/trailer tails are inline.
        {
            let arrivals = &sink.borrow().arrivals;
            assert!(!arrivals.is_empty());
            let views = arrivals.iter().filter(|(_, c)| c.is_view()).count();
            assert!(
                views * 2 > arrivals.len(),
                "most cells must be views, got {views}/{}",
                arrivals.len()
            );
        }
        // The capture sink still holds the delivered cells, pinning the
        // tile-frame buffers — but the CCD image buffers recycle from
        // frame to frame, so fresh allocations lag leases.
        let stats = cam.borrow().arena().stats();
        assert!(
            stats.fresh_allocs < stats.leases_granted,
            "fresh {} vs granted {}",
            stats.fresh_allocs,
            stats.leases_granted
        );
    }

    #[test]
    fn steady_state_camera_recycles_buffers() {
        let (cam, sink) = capture_setup(CameraConfig {
            mode: VideoMode::Mjpeg(50),
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        // Drain the capture sink between frames so leases return.
        for i in 1..=10u64 {
            sim.run_until(i * 40 * MS);
            sink.borrow_mut().arrivals.clear();
        }
        cam.borrow_mut().stop();
        sim.run();
        sink.borrow_mut().arrivals.clear();
        let stats = cam.borrow().arena().stats();
        assert_eq!(
            stats.outstanding, 0,
            "every frame and tile-frame lease returned"
        );
        // 10+ frames, each an image lease + several tile-frame leases,
        // served by a handful of distinct buffers.
        assert!(
            stats.leases_granted > 50,
            "granted {}",
            stats.leases_granted
        );
        assert!(
            stats.fresh_allocs <= 8,
            "steady state must recycle, allocated {}",
            stats.fresh_allocs
        );
    }

    type Rig = (Rc<RefCell<Camera>>, Rc<RefCell<CaptureSink>>);

    /// Raw 64×48 cameras on `scene` with these seeds, started together
    /// on one simulator.
    fn started_together(sim: &mut Simulator, scene: Scene, seeds: &[u64]) -> Vec<Rig> {
        let cfg = CameraConfig {
            mode: VideoMode::Raw,
            ..CameraConfig::default()
        };
        let rig = |&seed: &u64| {
            let sink = CaptureSink::shared();
            let tx = Rc::new(RefCell::new(Link::new(100_000_000, 1_000, sink.clone())));
            let cam = Camera::new(SyntheticVideo::new(64, 48, scene, seed), cfg, 42, tx);
            Camera::start(&cam, sim);
            (cam, sink)
        };
        seeds.iter().map(rig).collect()
    }

    #[test]
    fn cameras_showing_one_picture_share_one_image() {
        let mut sim = Simulator::new();
        let rigs = started_together(&mut sim, Scene::MovingGradient, &[7, 7, 8]);
        // Two of a frame's six rows have left each camera; four wait,
        // each holding the image.
        sim.run_until(18 * MS);
        let probe = Arena::new();
        let held = |seed| {
            let video = SyntheticVideo::new(64, 48, Scene::MovingGradient, seed);
            video.frame_leased(0, &probe).handle_count() - 1
        };
        assert_eq!(held(7), 4 + 4, "both cameras' rows hold one buffer");
        assert_eq!(held(8), 4, "another seed is another picture");
        assert_eq!(probe.stats().leases_granted, 0, "the probe found both");
        // The second camera has leased tile frames and no image.
        let granted = |i: usize| rigs[i].0.borrow().arena().stats().leases_granted;
        assert_eq!(granted(1) + 1, granted(0));
        assert_eq!(granted(2), granted(0));
    }

    #[test]
    fn a_shared_image_goes_back_when_its_last_camera_lets_go() {
        let mut sim = Simulator::new();
        let rigs = started_together(&mut sim, Scene::TestCard, &[1, 2]);
        sim.run_until(100 * MS);
        for (cam, _) in &rigs {
            cam.borrow_mut().stop();
        }
        sim.run();
        for (cam, sink) in &rigs {
            sink.borrow_mut().arrivals.clear();
            assert_eq!(cam.borrow().arena().stats().outstanding, 0);
        }
        // The table kept nothing alive: the picture is drawn again.
        let probe = Arena::new();
        let again = SyntheticVideo::new(64, 48, Scene::TestCard, 3).frame_leased(9, &probe);
        assert_eq!(probe.stats().leases_granted, 1);
        assert_eq!(again.handle_count(), 1);
    }

    #[test]
    fn empty_credit_window_skips_whole_frames_only() {
        use pegasus_atm::credit::CreditWindow;
        let (cam, sink) = capture_setup(CameraConfig {
            mode: VideoMode::Raw,
            ..CameraConfig::default()
        });
        // Room for exactly one 8-tile AAL5 frame (64 B tiles ≈ 13 cells
        // with headers and trailer) and nothing more: every later frame
        // must be withheld whole.
        let credit = CreditWindow::shared(20);
        cam.borrow_mut().set_credit(credit.clone());
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(39 * MS);
        cam.borrow_mut().stop();
        sim.run();
        let stats = cam.borrow().stats.clone();
        assert_eq!(stats.aal5_frames, 1, "one frame fit the window");
        assert!(stats.frames_skipped > 0, "the rest were held at source");
        assert!(credit.borrow().conserved());
        assert!(credit.borrow().peak_in_flight() <= 20);
        // Whatever arrived reassembles cleanly — no partial frames.
        let frames = reassemble_frames(&sink);
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn set_fps_takes_effect_at_the_next_tick() {
        let (cam, _) = capture_setup(CameraConfig {
            mode: VideoMode::Raw,
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(500 * MS); // ~12 frames at 25 fps
        cam.borrow_mut().set_fps(5);
        sim.run_until(1_000 * MS); // ~2-3 more at 5 fps
        cam.borrow_mut().stop();
        sim.run();
        let f = cam.borrow().stats.frames_captured;
        assert!(
            (14..=17).contains(&f),
            "rate change must halve the cadence live, captured {f}"
        );
        assert_eq!(cam.borrow().fps(), 5);
    }

    #[test]
    fn stop_halts_capture() {
        let (cam, _) = capture_setup(CameraConfig::default());
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(50 * MS);
        cam.borrow_mut().stop();
        sim.run();
        let frames_at_stop = cam.borrow().stats.frames_captured;
        assert!(frames_at_stop >= 1);
        assert!(!cam.borrow().is_running());
    }

    #[test]
    fn sustained_rate_25fps() {
        let (cam, _) = capture_setup(CameraConfig {
            mode: VideoMode::Raw,
            ..CameraConfig::default()
        });
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(1_000 * MS);
        cam.borrow_mut().stop();
        sim.run();
        let f = cam.borrow().stats.frames_captured;
        assert!((25..=26).contains(&f), "captured {f} frames in 1 s");
    }
}
