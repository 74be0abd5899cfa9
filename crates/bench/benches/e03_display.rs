//! E3 — ATM display: descriptor demultiplexing and the video/graphics
//! unification.
//!
//! Paper, Figure 3: "the multiplexing is done via the display's window
//! descriptors"; tiles are "bit-blit operations of fixed size".

use pegasus_atm::aal5::Segmenter;
use pegasus_bench::{banner, row};
use pegasus_devices::codec;
use pegasus_devices::display::{Display, Rect, WindowManager};
use pegasus_devices::tile::{TileCoding, TileFrame};
use pegasus_sim::Simulator;

fn main() {
    banner(
        "E3",
        "display: tile blit rate and window-descriptor operations",
        "Fig. 3; §2.1 'unification of video and graphics'",
    );
    let display = Display::shared(1024, 768);
    let mut wm = WindowManager::new(display.clone(), 1);
    for w in 0..16u16 {
        wm.create(
            100 + w,
            Rect::new((w as i32 % 4) * 200, (w as i32 / 4) * 150, 200, 150),
        );
    }
    let mut sim = Simulator::new();

    // Raw tiles through AAL5 into the descriptor table.
    let n_frames = 2_000;
    for i in 0..n_frames {
        let vci = 100 + (i % 16) as u16;
        let frame = TileFrame {
            coding: TileCoding::Raw,
            quality: 0,
            frame_seq: i,
            timestamp: 0,
            tiles: (0..8)
                .map(|t| (t * 8, ((i * 8) % 144) as u16, vec![7u8; 64]))
                .collect(),
        };
        for cell in Segmenter::new(vci).segment(&frame.encode()).unwrap() {
            use pegasus_atm::link::CellSink;
            display.borrow_mut().deliver(&mut sim, cell);
        }
    }
    let blitted = display.borrow().stats.tiles_blitted;
    row(&[
        ("raw tiles blitted", blitted.to_string()),
        (
            "pixels written",
            display.borrow().stats.pixels_written.to_string(),
        ),
    ]);

    // Compressed tiles (the decode is on the device).
    let display2 = Display::shared(1024, 768);
    let mut wm2 = WindowManager::new(display2.clone(), 1);
    wm2.create(50, Rect::new(0, 0, 1024, 768));
    let payload = codec::encode_tile(&[128u8; 64], 50);
    for i in 0..n_frames {
        let frame = TileFrame {
            coding: TileCoding::Compressed,
            quality: 50,
            frame_seq: i,
            timestamp: 0,
            tiles: (0..8)
                .map(|t| (t * 8, ((i * 8) % 760) as u16, payload.clone()))
                .collect(),
        };
        for cell in Segmenter::new(50).segment(&frame.encode()).unwrap() {
            use pegasus_atm::link::CellSink;
            display2.borrow_mut().deliver(&mut sim, cell);
        }
    }
    let blitted2 = display2.borrow().stats.tiles_blitted.to_string();
    row(&[("mjpeg tiles blitted", blitted2)]);

    // Window-manager operations are descriptor writes: count, not copy.
    let ops = 10_000;
    for i in 0..ops {
        wm.move_to(100 + (i % 16) as u16, i % 800, i % 600);
        wm.raise(100 + (i % 16) as u16);
    }
    row(&[("wm ops (move+raise)", (2 * ops).to_string())]);
    println!(
        "expect: blit scales with pixels; WM ops are orders of magnitude cheaper than repainting"
    );
}
