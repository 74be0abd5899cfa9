//! Tiles and the on-the-wire tile-frame format.
//!
//! "Scan-lines of video are digitized and when eight lines have been
//! buffered, they are encoded as tiles, rectangles of 8×8 pixels. A
//! number of tiles are packed into the payload of an AAL5 frame together
//! with a trailer that provides the x and y coordinates of the tiles with
//! respect to the video frame, and a time stamp that identifies the frame
//! that the tile belongs to." (§2.1)
//!
//! Because "tiles essentially represent bit-blit operations of fixed
//! size, from the viewpoint of a display, there is a unification of video
//! and graphics" — the window manager writes its decorations as exactly
//! the same tile frames a camera produces.

/// Tile edge length in pixels.
pub const TILE_DIM: usize = 8;
/// Pixels per tile.
pub const TILE_PIXELS: usize = TILE_DIM * TILE_DIM;

/// An 8×8 tile of 8-bit luminance pixels, tagged with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    /// X coordinate (pixels) of the tile's left edge in the video frame.
    pub x: u16,
    /// Y coordinate (pixels) of the tile's top edge.
    pub y: u16,
    /// Pixel data in row-major order.
    pub pixels: [u8; TILE_PIXELS],
}

impl Tile {
    /// Extracts the tile at tile-grid position (tx, ty) from a
    /// `width × height` luminance image.
    ///
    /// # Panics
    ///
    /// Panics if the tile lies outside the image or the buffer is too
    /// small.
    pub(crate) fn from_image(image: &[u8], width: usize, tx: usize, ty: usize) -> Self {
        let x0 = tx * TILE_DIM;
        let y0 = ty * TILE_DIM;
        let mut pixels = [0u8; TILE_PIXELS];
        for row in 0..TILE_DIM {
            let src = (y0 + row) * width + x0;
            pixels[row * TILE_DIM..(row + 1) * TILE_DIM]
                .copy_from_slice(&image[src..src + TILE_DIM]);
        }
        Tile {
            x: x0 as u16,
            y: y0 as u16,
            pixels,
        }
    }
}

/// How tile payloads are coded inside a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileCoding {
    /// 64 raw bytes per tile.
    Raw,
    /// Variable-length Motion-JPEG-coded tiles (see [`crate::codec`]).
    Compressed,
}

/// A group of tiles travelling in one AAL5 frame, with the trailer data
/// the paper describes: per-tile coordinates and a frame timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct TileFrame {
    /// Coding of the tile payloads.
    pub coding: TileCoding,
    /// Codec quality for [`TileCoding::Compressed`] payloads (0 for raw).
    pub quality: u8,
    /// Sequence number of the video frame these tiles belong to.
    pub frame_seq: u32,
    /// Capture timestamp of the video frame (virtual nanoseconds).
    pub timestamp: u64,
    /// `(x, y, payload)` for each tile; payload is 64 raw bytes or a
    /// compressed bitstream.
    pub tiles: Vec<(u16, u16, Vec<u8>)>,
}

/// Errors decoding a tile frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileFrameError {
    /// Frame shorter than its fixed header.
    Truncated,
    /// Unknown coding discriminant.
    BadCoding(u8),
    /// A tile's declared length overruns the frame.
    BadTileLength,
}

impl std::fmt::Display for TileFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TileFrameError::Truncated => write!(f, "tile frame truncated"),
            TileFrameError::BadCoding(c) => write!(f, "unknown tile coding {c}"),
            TileFrameError::BadTileLength => write!(f, "tile length overruns frame"),
        }
    }
}

impl std::error::Error for TileFrameError {}

impl TileFrame {
    /// Serializes the frame to the AAL5 payload layout:
    /// `coding(1) quality(1) ntiles(1) frame_seq(4) timestamp(8)` then
    /// per tile `x(2) y(2) len(2) data(len)`, through a
    /// [`TileFrameWriter`].
    ///
    /// # Panics
    ///
    /// Panics if the frame holds more than 255 tiles, more than the
    /// one-byte count can say.
    pub fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(HEADER_LEN + self.tiles.len() * (TILE_PREFIX_LEN + TILE_PIXELS));
        let mut w = TileFrameWriter::begin(
            &mut out,
            self.coding,
            self.quality,
            self.frame_seq,
            self.timestamp,
        );
        for (x, y, data) in &self.tiles {
            w.push_tile(*x, *y, data);
        }
        w.finish();
        out
    }

    /// Parses a frame produced by [`TileFrame::encode`] into owned
    /// tiles, for a caller that keeps it; one that only reads it uses
    /// [`TileFrameView::parse`] and copies nothing.
    pub fn decode(bytes: &[u8]) -> Result<TileFrame, TileFrameError> {
        let view = TileFrameView::parse(bytes)?;
        Ok(TileFrame {
            coding: view.coding,
            quality: view.quality,
            frame_seq: view.frame_seq,
            timestamp: view.timestamp,
            tiles: view.tiles().map(|(x, y, d)| (x, y, d.to_vec())).collect(),
        })
    }

    /// Total payload bytes across the tiles.
    pub fn payload_bytes(&self) -> usize {
        self.tiles.iter().map(|(_, _, d)| d.len()).sum()
    }
}

/// Bytes of the fixed header: `coding(1) quality(1) ntiles(1)
/// frame_seq(4) timestamp(8)`.
const HEADER_LEN: usize = 15;
/// Bytes of a tile's `x(2) y(2) len(2)` prefix.
pub(crate) const TILE_PREFIX_LEN: usize = 6;

/// A parsed tile frame that borrows its payloads from the received
/// bytes: the header fields plus an iterator over `(x, y, payload)`.
/// Receivers — the display, the recorder's index, a playback client
/// reading a timestamp — look at a frame through this and allocate
/// nothing.
///
/// # Examples
///
/// ```
/// use pegasus_devices::tile::{TileCoding, TileFrameView, TileFrameWriter};
///
/// let mut buf = Vec::new();
/// let mut w = TileFrameWriter::begin(&mut buf, TileCoding::Raw, 0, 3, 99);
/// w.push_tile(0, 8, &[7u8; 64]);
/// w.finish();
/// let frame = TileFrameView::parse(&buf).unwrap();
/// assert_eq!((frame.frame_seq, frame.timestamp), (3, 99));
/// assert_eq!(frame.tiles().next(), Some((0, 8, &[7u8; 64][..])));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileFrameView<'a> {
    /// Coding of the tile payloads.
    pub coding: TileCoding,
    /// Codec quality for [`TileCoding::Compressed`] payloads (0 for raw).
    pub quality: u8,
    /// Sequence number of the video frame these tiles belong to.
    pub frame_seq: u32,
    /// Capture timestamp of the video frame (virtual nanoseconds).
    pub timestamp: u64,
    tile_count: usize,
    /// Everything after the header; [`TileFrameView::parse`] has checked
    /// that `tile_count` whole tiles lie in it.
    body: &'a [u8],
}

impl<'a> TileFrameView<'a> {
    /// Checks a frame produced by [`TileFrame::encode`] or
    /// [`TileFrameWriter`] — header, coding, every tile's length —
    /// without copying any of it.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, TileFrameError> {
        if bytes.len() < HEADER_LEN {
            return Err(TileFrameError::Truncated);
        }
        let coding = match bytes[0] {
            0 => TileCoding::Raw,
            1 => TileCoding::Compressed,
            c => return Err(TileFrameError::BadCoding(c)),
        };
        let body = &bytes[HEADER_LEN..];
        let tile_count = bytes[2] as usize;
        framed_len(body, tile_count)?;
        Ok(TileFrameView {
            coding,
            quality: bytes[1],
            frame_seq: u32::from_be_bytes(bytes[3..7].try_into().expect("4 bytes")),
            timestamp: u64::from_be_bytes(bytes[7..15].try_into().expect("8 bytes")),
            tile_count,
            body,
        })
    }

    /// Number of tiles in the frame.
    pub(crate) fn tile_count(&self) -> usize {
        self.tile_count
    }

    /// The tiles in wire order: `(x, y, payload)`, payload being 64 raw
    /// bytes or a compressed bitstream.
    pub fn tiles(&self) -> impl Iterator<Item = (u16, u16, &'a [u8])> {
        let mut rest = self.body;
        (0..self.tile_count).map(move |_| {
            let (prefix, after) = rest.split_at(TILE_PREFIX_LEN);
            let len = u16::from_be_bytes([prefix[4], prefix[5]]) as usize;
            let (data, after) = after.split_at(len);
            rest = after;
            (
                u16::from_be_bytes([prefix[0], prefix[1]]),
                u16::from_be_bytes([prefix[2], prefix[3]]),
                data,
            )
        })
    }
}

/// How many bytes the first `tiles` tiles of `body` take, each as a
/// frame carries it (`x(2) y(2) len(2)` and the payload), checked to lie
/// whole inside `body`.
pub(crate) fn framed_len(body: &[u8], tiles: usize) -> Result<usize, TileFrameError> {
    let mut off = 0;
    for _ in 0..tiles {
        let Some(prefix) = body.get(off..off + TILE_PREFIX_LEN) else {
            return Err(TileFrameError::Truncated);
        };
        off += TILE_PREFIX_LEN + u16::from_be_bytes([prefix[4], prefix[5]]) as usize;
        if off > body.len() {
            return Err(TileFrameError::BadTileLength);
        }
    }
    Ok(off)
}

/// Appends one tile to `buf` as a frame carries it: `x(2) y(2) len(2)`,
/// then the payload `encode` writes there.
pub(crate) fn push_framed(buf: &mut Vec<u8>, x: u16, y: u16, encode: impl FnOnce(&mut Vec<u8>)) {
    buf.extend_from_slice(&x.to_be_bytes());
    buf.extend_from_slice(&y.to_be_bytes());
    let len_at = buf.len();
    buf.extend_from_slice(&[0, 0]); // length, patched below
    encode(buf);
    let len = buf.len() - len_at - 2;
    buf[len_at..len_at + 2].copy_from_slice(&(len as u16).to_be_bytes());
}

/// Streams the tile-frame wire format (the one writer of it:
/// [`TileFrame::encode`] is built on this) directly into a byte
/// buffer — the zero-copy camera path writes its header and its tiles,
/// framed once by the picture it shows, into the leased arena buffer the
/// AAL5 frame will be segmented from, skipping the intermediate
/// `TileFrame` struct and its per-tile `Vec`s entirely.
///
/// `B` is any owned-or-borrowed handle to a `Vec<u8>`: a plain
/// `&mut Vec<u8>`, or a `pegasus_sim::arena::FrameBufMut` lease.
///
/// # Examples
///
/// ```
/// use pegasus_devices::tile::{TileCoding, TileFrame, TileFrameWriter};
///
/// let mut buf = Vec::new();
/// let mut w = TileFrameWriter::begin(&mut buf, TileCoding::Raw, 0, 3, 99);
/// w.push_tile(0, 8, &[7u8; 64]);
/// w.finish();
/// let frame = TileFrame::decode(&buf).unwrap();
/// assert_eq!(frame.frame_seq, 3);
/// assert_eq!(frame.tiles[0].2, vec![7u8; 64]);
/// ```
pub struct TileFrameWriter<B: std::ops::DerefMut<Target = Vec<u8>>> {
    buf: B,
    /// Where this frame starts in the buffer.
    base: usize,
    tiles: usize,
}

impl<B: std::ops::DerefMut<Target = Vec<u8>>> TileFrameWriter<B> {
    /// Starts a frame, appending the fixed header to `buf`.
    pub fn begin(
        mut buf: B,
        coding: TileCoding,
        quality: u8,
        frame_seq: u32,
        timestamp: u64,
    ) -> Self {
        let base = buf.len();
        buf.push(match coding {
            TileCoding::Raw => 0,
            TileCoding::Compressed => 1,
        });
        buf.push(quality);
        buf.push(0); // ntiles, patched by finish()
        buf.extend_from_slice(&frame_seq.to_be_bytes());
        buf.extend_from_slice(&timestamp.to_be_bytes());
        TileFrameWriter {
            buf,
            base,
            tiles: 0,
        }
    }

    /// Appends one tile with an already-encoded payload.
    pub fn push_tile(&mut self, x: u16, y: u16, data: &[u8]) {
        self.push_framed_tiles(1, |buf| {
            push_framed(buf, x, y, |out| out.extend_from_slice(data))
        });
    }

    /// Appends `tiles` tiles already framed (see [`framed_len`]) — how
    /// a camera sends the rows its picture has coded once for every
    /// camera showing it.
    pub(crate) fn push_framed_tiles(&mut self, tiles: usize, write: impl FnOnce(&mut Vec<u8>)) {
        assert!(
            self.tiles + tiles <= u8::MAX as usize,
            "tile count field is one byte"
        );
        write(&mut self.buf);
        self.tiles += tiles;
    }

    /// Tiles appended so far.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Patches the tile count and returns the buffer handle.
    pub fn finish(mut self) -> B {
        let ntiles = self.tiles as u8;
        self.buf[self.base + 2] = ntiles;
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `TileFrame::decode` as it stood when it was the only parser: the
    /// owning walk the borrowed view must agree with, error for error.
    fn reference_decode(bytes: &[u8]) -> Result<TileFrame, TileFrameError> {
        if bytes.len() < 15 {
            return Err(TileFrameError::Truncated);
        }
        let coding = match bytes[0] {
            0 => TileCoding::Raw,
            1 => TileCoding::Compressed,
            c => return Err(TileFrameError::BadCoding(c)),
        };
        let quality = bytes[1];
        let ntiles = bytes[2] as usize;
        let frame_seq = u32::from_be_bytes(bytes[3..7].try_into().expect("4 bytes"));
        let timestamp = u64::from_be_bytes(bytes[7..15].try_into().expect("8 bytes"));
        let mut tiles = Vec::with_capacity(ntiles);
        let mut off = 15;
        for _ in 0..ntiles {
            if off + 6 > bytes.len() {
                return Err(TileFrameError::Truncated);
            }
            let x = u16::from_be_bytes([bytes[off], bytes[off + 1]]);
            let y = u16::from_be_bytes([bytes[off + 2], bytes[off + 3]]);
            let len = u16::from_be_bytes([bytes[off + 4], bytes[off + 5]]) as usize;
            off += 6;
            if off + len > bytes.len() {
                return Err(TileFrameError::BadTileLength);
            }
            tiles.push((x, y, bytes[off..off + len].to_vec()));
            off += len;
        }
        Ok(TileFrame {
            coding,
            quality,
            frame_seq,
            timestamp,
            tiles,
        })
    }

    /// `TileFrame::encode` as it stood when it wrote the layout by hand:
    /// the bytes the writer must produce for up to 255 tiles.
    fn reference_encode(frame: &TileFrame) -> Vec<u8> {
        let mut out = vec![frame.coding as u8, frame.quality, frame.tiles.len() as u8];
        out.extend_from_slice(&frame.frame_seq.to_be_bytes());
        out.extend_from_slice(&frame.timestamp.to_be_bytes());
        for (x, y, data) in &frame.tiles {
            out.extend_from_slice(&x.to_be_bytes());
            out.extend_from_slice(&y.to_be_bytes());
            out.extend_from_slice(&(data.len() as u16).to_be_bytes());
            out.extend_from_slice(data);
        }
        out
    }

    /// View, owning decode and reference agree on `bytes`.
    fn assert_view_agrees(bytes: &[u8]) {
        let want = reference_decode(bytes);
        assert_eq!(TileFrame::decode(bytes), want);
        match (TileFrameView::parse(bytes), want) {
            (Err(e), Err(want)) => assert_eq!(e, want),
            (Ok(view), Ok(want)) => {
                assert_eq!(
                    (view.coding, view.quality, view.frame_seq, view.timestamp),
                    (want.coding, want.quality, want.frame_seq, want.timestamp)
                );
                assert_eq!(view.tile_count(), want.tiles.len());
                let tiles: Vec<_> = view.tiles().map(|(x, y, d)| (x, y, d.to_vec())).collect();
                assert_eq!(tiles, want.tiles);
            }
            (got, want) => panic!("view {got:?} but reference {want:?}"),
        }
    }

    #[test]
    fn tile_from_image_extracts_rows() {
        let width = 16;
        let image: Vec<u8> = (0..width * 16).map(|i| (i % 251) as u8).collect();
        let t = Tile::from_image(&image, width, 1, 1);
        assert_eq!(t.x, 8);
        assert_eq!(t.y, 8);
        // First pixel of the tile = image[8*16 + 8].
        assert_eq!(t.pixels[0], image[8 * 16 + 8]);
        // Last pixel = image[15*16 + 15].
        assert_eq!(t.pixels[63], image[15 * 16 + 15]);
    }

    #[test]
    fn frame_roundtrip_raw() {
        let frame = TileFrame {
            coding: TileCoding::Raw,
            quality: 0,
            frame_seq: 7,
            timestamp: 123_456_789,
            tiles: vec![
                (0, 0, vec![1u8; 64]),
                (8, 0, vec![2u8; 64]),
                (16, 8, vec![3u8; 64]),
            ],
        };
        let bytes = frame.encode();
        let back = TileFrame::decode(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.payload_bytes(), 192);
    }

    #[test]
    fn frame_roundtrip_compressed_variable_lengths() {
        let frame = TileFrame {
            coding: TileCoding::Compressed,
            quality: 50,
            frame_seq: 1,
            timestamp: 42,
            tiles: vec![(0, 0, vec![9u8; 17]), (8, 8, vec![])],
        };
        let back = TileFrame::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(TileFrame::decode(&[0u8; 5]), Err(TileFrameError::Truncated));
        let frame = TileFrame {
            coding: TileCoding::Raw,
            quality: 0,
            frame_seq: 0,
            timestamp: 0,
            tiles: vec![(0, 0, vec![0u8; 64])],
        };
        let mut bytes = frame.encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(
            TileFrame::decode(&bytes),
            Err(TileFrameError::BadTileLength)
        );
    }

    #[test]
    fn bad_coding_rejected() {
        let mut bytes = TileFrame {
            coding: TileCoding::Raw,
            quality: 0,
            frame_seq: 0,
            timestamp: 0,
            tiles: vec![],
        }
        .encode();
        bytes[0] = 9;
        assert_eq!(TileFrame::decode(&bytes), Err(TileFrameError::BadCoding(9)));
    }

    #[test]
    fn writer_matches_encode_byte_for_byte() {
        let frame = TileFrame {
            coding: TileCoding::Compressed,
            quality: 61,
            frame_seq: 0xDEAD_BEEF,
            timestamp: 0x0123_4567_89AB_CDEF,
            tiles: vec![
                (0, 0, vec![1u8; 17]),
                (8, 0, vec![]),
                (16, 8, vec![9u8; 64]),
            ],
        };
        let mut buf = Vec::new();
        let mut w = TileFrameWriter::begin(
            &mut buf,
            frame.coding,
            frame.quality,
            frame.frame_seq,
            frame.timestamp,
        );
        for (x, y, d) in &frame.tiles {
            w.push_tile(*x, *y, d);
        }
        assert_eq!(w.tiles(), 3);
        w.finish();
        assert_eq!(buf, reference_encode(&frame));
        assert_eq!(frame.encode(), buf);
    }

    #[test]
    #[should_panic(expected = "tile count field is one byte")]
    fn a_frame_of_more_tiles_than_its_count_can_say_is_refused() {
        let tile = |i: u16| (i % 22 * 8, i / 22 * 8, vec![7u8; 64]);
        let mut frame = TileFrame {
            coding: TileCoding::Raw,
            quality: 0,
            frame_seq: 1,
            timestamp: 2,
            tiles: (0..255).map(tile).collect(),
        };
        let full = frame.encode();
        assert_eq!(TileFrame::decode(&full).as_ref(), Ok(&frame));
        // One more would wrap the count to 0 and decode as an empty frame.
        frame.tiles.push(tile(255));
        frame.encode();
    }

    #[test]
    fn writer_appends_after_existing_bytes() {
        let mut buf = vec![0xEE; 5];
        let mut w = TileFrameWriter::begin(&mut buf, TileCoding::Raw, 0, 1, 2);
        w.push_tile(0, 0, &[3u8; 64]);
        w.finish();
        assert_eq!(&buf[..5], &[0xEE; 5]);
        let frame = TileFrame::decode(&buf[5..]).unwrap();
        assert_eq!(frame.tiles.len(), 1);
    }

    proptest! {
        #[test]
        fn prop_writer_equivalent_to_encode(
            seq in any::<u32>(),
            ts in any::<u64>(),
            tiles in proptest::collection::vec(
                (any::<u16>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..100)),
                0..20,
            ),
        ) {
            let frame = TileFrame {
                coding: TileCoding::Compressed,
                quality: 17,
                frame_seq: seq,
                timestamp: ts,
                tiles,
            };
            let mut buf = Vec::new();
            let mut w = TileFrameWriter::begin(&mut buf, frame.coding, frame.quality, seq, ts);
            for (x, y, d) in &frame.tiles {
                w.push_tile(*x, *y, d);
            }
            w.finish();
            prop_assert_eq!(&buf, &reference_encode(&frame));
            prop_assert_eq!(buf, frame.encode());
        }

        #[test]
        fn prop_view_agrees_on_every_prefix(
            coding in 0u8..3,
            seq in any::<u32>(),
            ts in any::<u64>(),
            tiles in proptest::collection::vec(
                (any::<u16>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..100)),
                0..12,
            ),
            trailing in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            let mut bytes = TileFrame {
                coding: TileCoding::Compressed,
                quality: 42,
                frame_seq: seq,
                timestamp: ts,
                tiles,
            }
            .encode();
            bytes[0] = coding; // raw, compressed, or a discriminant nobody knows
            bytes.extend_from_slice(&trailing);
            for cut in 0..=bytes.len() {
                assert_view_agrees(&bytes[..cut]);
            }
        }

        #[test]
        fn prop_view_agrees_on_arbitrary_bytes(
            head in 0u8..2,
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            assert_view_agrees(&bytes);
            // The same bytes behind a plausible header, so the tile walk
            // runs instead of stopping at the coding byte.
            let mut framed = vec![head, 50];
            framed.extend_from_slice(&bytes);
            assert_view_agrees(&framed);
        }

        #[test]
        fn prop_frame_roundtrip(
            seq in any::<u32>(),
            ts in any::<u64>(),
            tiles in proptest::collection::vec(
                (any::<u16>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..100)),
                0..20,
            ),
        ) {
            let frame = TileFrame {
                coding: TileCoding::Compressed,
                quality: 42,
                frame_seq: seq,
                timestamp: ts,
                tiles,
            };
            prop_assert_eq!(TileFrame::decode(&frame.encode()).unwrap(), frame);
        }
    }
}
