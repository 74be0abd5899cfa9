//! ATM multimedia devices (§2.1).
//!
//! The Pegasus devices hang directly off the ATM switch rather than a
//! workstation bus, so that "when video flows from a camera in one
//! system to a display in another ... no processors need to process any
//! video data". This crate models the three devices the paper describes
//! plus the pieces they share:
//!
//! * [`tile`] — the 8×8 pixel tile, the unit in which video moves, and
//!   the AAL5 frame format with the (x, y, timestamp) trailer.
//! * [`codec`] — a genuine DCT + quantize + zigzag + run-length
//!   Motion-JPEG-style intra-frame codec, so compression ratios and
//!   PSNR are real measurements rather than constants.
//! * [`video`] — deterministic synthetic video sources (the substitute
//!   for the CCD array).
//! * [`camera`] — the ATM camera: scan-line digitization, 8-line
//!   buffering, tiling, optional compression, AAL5 framing, cell
//!   transmission on the data VC.
//! * [`display`] — the ATM display: a window-descriptor table indexed
//!   by VCI, tile blitting with clipping, and the window manager that
//!   manipulates the descriptors (create/move/resize/raise/lower) —
//!   "a unification of video and graphics".
//! * [`audio`] — the DSP node: ADC/DAC sample clocks, timestamped cell
//!   packing, and the play-out discipline whose jitter behaviour E17
//!   measures.

pub mod audio;
pub mod camera;
pub mod codec;
pub mod display;
pub mod tile;
pub mod video;

pub use camera::{Camera, CameraConfig, VideoMode};
pub use display::{Display, WindowDescriptor, WindowManager};
pub use tile::{Tile, TileFrame, TILE_DIM, TILE_PIXELS};
