//! E3 — "the multiplexing is done via the display's window descriptors";
//! tiles are "bit-blit operations of fixed size" (Fig. 3).

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_atm::aal5::Segmenter;
use pegasus_atm::link::CellSink;
use pegasus_devices::codec;
use pegasus_devices::display::{Display, Rect, WindowManager};
use pegasus_devices::tile::{TileCoding, TileFrame};
use pegasus_sim::Simulator;
use crate::{Claim, Result};

const FRAMES: u32 = 2_000;

/// Sends [`FRAMES`] frames of 8 tiles through AAL5 into `display`'s
/// descriptor table; `frame(i)` gives frame `i`'s VCI, coding, quality,
/// tile row and tile payload.
fn blit(
    display: &Rc<RefCell<Display>>,
    frame: impl Fn(u32) -> (u16, TileCoding, u8, u16, Vec<u8>),
) -> Result<()> {
    let mut sim = Simulator::new();
    for i in 0..FRAMES {
        let (vci, coding, quality, y, payload) = frame(i);
        let tiles = (0..8).map(|t| (t * 8, y, payload.clone())).collect();
        let frame = TileFrame {
            coding,
            quality,
            frame_seq: i,
            timestamp: 0,
            tiles,
        };
        for cell in Segmenter::new(vci).segment(&frame.encode())? {
            display.borrow_mut().deliver(&mut sim, cell);
        }
    }
    Ok(())
}

pub fn claim() -> Result<Claim> {
    // Raw tiles into 16 windows.
    let display = Display::shared(1024, 768);
    let mut wm = WindowManager::new(display.clone(), 1);
    for w in 0..16u16 {
        let (x, y) = ((w as i32 % 4) * 200, (w as i32 / 4) * 150);
        wm.create(100 + w, Rect::new(x, y, 200, 150));
    }
    blit(&display, |i| {
        let y = ((i * 8) % 144) as u16;
        (100 + (i % 16) as u16, TileCoding::Raw, 0, y, vec![7u8; 64])
    })?;
    let blitted = display.borrow().stats.tiles_blitted;
    let pixels = display.borrow().stats.pixels_written;

    // Compressed tiles (the decode is on the device).
    let display2 = Display::shared(1024, 768);
    WindowManager::new(display2.clone(), 1).create(50, Rect::new(0, 0, 1024, 768));
    let payload = codec::encode_tile(&[128u8; 64], 50);
    blit(&display2, |i| {
        let y = ((i * 8) % 760) as u16;
        (50, TileCoding::Compressed, 50, y, payload.clone())
    })?;
    let blitted2 = display2.borrow().stats.tiles_blitted;

    // Window-manager operations are descriptor writes: count, not copy.
    let ops = 10_000;
    for i in 0..ops {
        wm.move_to(100 + (i % 16) as u16, i % 800, i % 600);
        wm.raise(100 + (i % 16) as u16);
    }
    let repainted = display.borrow().stats.pixels_written - pixels;
    let tiles = 8 * u64::from(FRAMES);
    Ok(Claim {
        id: "E3",
        title: "display: tile blit rate and window-descriptor operations",
        anchor: "Fig. 3; §2.1 'unification of video and graphics'",
        expected_shape: "every tile delivered is blitted, raw or compressed, at a fixed 64 \
            pixels; window-manager moves and raises rewrite descriptors and repaint no pixels",
        rows: vec![
            format!("raw tiles blitted={blitted}  pixels written={pixels}"),
            format!("mjpeg tiles blitted={blitted2}"),
            format!("wm ops (move+raise)={}", 2 * ops),
        ],
        measured: format!(
            "{blitted} raw + {blitted2} mjpeg tiles of {tiles}; {pixels} pixels; {} WM ops \
             repainted {repainted} pixels",
            2 * ops
        ),
        holds: blitted == tiles && blitted2 == tiles && pixels == 64 * blitted && repainted == 0,
    })
}
