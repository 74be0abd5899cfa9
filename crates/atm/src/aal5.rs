//! AAL5 framing: CPCS-PDU construction, segmentation and reassembly.
//!
//! The ATM camera packs tiles "into the payload of an AAL5 frame together
//! with a trailer" (§2.1). AAL5 appends a pad and an 8-byte CPCS trailer —
//! CPCS-UU (1 byte), CPI (1 byte), Length (2 bytes), CRC-32 (4 bytes) — so
//! that the padded PDU is a multiple of 48 bytes, then slices it into cell
//! payloads. The final cell of a frame is marked with the AAL-user bit in
//! the cell header's PTI field.
//!
//! # Zero-copy lane
//!
//! Two segmentation paths produce bit-identical cell streams:
//!
//! * [`Segmenter::segment`] — the copying reference path: materialise the
//!   padded PDU, copy 48-byte chunks into owned cells.
//! * [`Segmenter::segment_frame`] — scatter-gather over an arena
//!   [`FrameView`]: every full 48-byte chunk of the frame becomes a
//!   view-payload cell (refcount bump, no copy); only the tail — the
//!   final partial chunk plus pad and trailer, at most two cells — is
//!   synthesised inline, with the CRC folded incrementally over the
//!   frame bytes in place.
//!
//! On the receive side [`Reassembler::push_frame`] undoes the split
//! without copying: consecutive view cells from one buffer are stitched
//! back into a single [`FrameView`] of the *original* frame buffer (the
//! single-address-space argument: sender and receiver share the
//! storage), verified against the inline tail; any irregularity — an
//! inline or non-contiguous cell, a length mismatch, a failed tail
//! comparison, a nonzero pad or CPI byte — falls back to materialising
//! the PDU and running the exact copying-path validation, CRC and all.
//!
//! # Trust boundary
//!
//! The fast path does *not* recompute the CRC-32 over the stitched
//! view: the arena buffer is immutable and shared between sender and
//! receiver, so the body bytes are provably the bytes the segmenter
//! summed — recomputing would only re-verify memory the simulator
//! already guarantees, at ~100× the cost of every copy this module
//! eliminates. Every byte of the inline tail that is reconstructible is
//! checked (frame remainder against the buffer, zero pad, zero CPI);
//! the CPCS-UU octet, the stored CRC field, and the length field (to
//! the extent it stays consistent with the cell count, the pad-zero
//! check and the buffer bounds) are carried on trust. The guarantee
//! this buys is *prefix integrity*, not trailer integrity: an accepted
//! fast-path frame is always byte-for-byte a prefix of the producer's
//! frame at the trailer's claimed length — never garbage — but a
//! hand-tampered tail cell (e.g. a length field flipped to a smaller
//! value whose displaced frame bytes happen to be zero) can be accepted
//! truncated where the copying path's CRC would reject. Body cells
//! cannot be tampered at all: mutating a view cell goes through
//! [`Cell::payload_mut`]'s copy-on-write, which materialises it and
//! forces the full CRC fallback. Nothing in the simulator flips inline
//! payload bytes in flight (faults drop or delay cells, links and
//! switches never write payloads), so in-sim the fast path delivers
//! exactly what the copying path would; the residual divergence is
//! reachable only by constructing corrupted cells by hand, and the
//! corruption property test pins the prefix guarantee for that case.

use pegasus_sim::arena::FrameView;
use std::ops::Deref;

use crate::cell::{Cell, Vci, PAYLOAD_SIZE};
use crate::crc;

/// Size of the CPCS-PDU trailer in bytes.
pub const TRAILER_SIZE: usize = 8;

/// Largest payload a single CPCS-PDU may carry (16-bit length field).
pub const MAX_FRAME: usize = 65_535;

/// Errors surfaced by AAL5 reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aal5Error {
    /// The CRC-32 in the trailer did not match the received PDU.
    BadCrc,
    /// The length field was inconsistent with the number of cells received.
    BadLength,
    /// A frame exceeded [`MAX_FRAME`] bytes and cannot be segmented.
    FrameTooLarge,
}

impl std::fmt::Display for Aal5Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Aal5Error::BadCrc => write!(f, "AAL5 CRC-32 mismatch"),
            Aal5Error::BadLength => write!(f, "AAL5 length field inconsistent"),
            Aal5Error::FrameTooLarge => write!(f, "frame exceeds AAL5 maximum"),
        }
    }
}

impl std::error::Error for Aal5Error {}

/// Segments frames into cells (the sending half of AAL5).
///
/// # Examples
///
/// ```
/// use pegasus_atm::aal5::{Segmenter, Reassembler};
///
/// let cells = Segmenter::new(7).segment(b"tile data").unwrap();
/// let mut r = Reassembler::new();
/// let mut out = None;
/// for cell in cells {
///     if let Some(res) = r.push(&cell) {
///         out = Some(res.unwrap());
///     }
/// }
/// assert_eq!(out.unwrap(), b"tile data");
/// ```
#[derive(Debug, Clone)]
pub struct Segmenter {
    vci: Vci,
    /// CPCS user-to-user byte carried transparently in the trailer.
    pub uu: u8,
}

impl Segmenter {
    /// Creates a segmenter that labels cells with `vci`.
    pub fn new(vci: Vci) -> Self {
        Segmenter { vci, uu: 0 }
    }

    /// The VCI this segmenter stamps on outgoing cells.
    pub fn vci(&self) -> Vci {
        self.vci
    }

    /// Number of cells needed for a frame of `len` payload bytes.
    pub(crate) fn cells_for(len: usize) -> usize {
        (len + TRAILER_SIZE).div_ceil(PAYLOAD_SIZE)
    }

    /// Builds the padded CPCS-PDU for `frame` (payload + pad + trailer).
    pub fn build_pdu(&self, frame: &[u8]) -> Result<Vec<u8>, Aal5Error> {
        if frame.len() > MAX_FRAME {
            return Err(Aal5Error::FrameTooLarge);
        }
        let total = Self::cells_for(frame.len()) * PAYLOAD_SIZE;
        let mut pdu = Vec::with_capacity(total);
        pdu.extend_from_slice(frame);
        pdu.resize(total - TRAILER_SIZE, 0); // pad
        pdu.push(self.uu);
        pdu.push(0); // CPI
        pdu.extend_from_slice(&(frame.len() as u16).to_be_bytes());
        let crc = crc::crc32(&pdu);
        pdu.extend_from_slice(&crc.to_be_bytes());
        debug_assert_eq!(pdu.len() % PAYLOAD_SIZE, 0);
        Ok(pdu)
    }

    /// Segments `frame` into a sequence of cells; the last cell carries
    /// the end-of-frame marker. This is the copying reference path; the
    /// hot path uses [`Segmenter::segment_frame`].
    pub fn segment(&self, frame: &[u8]) -> Result<Vec<Cell>, Aal5Error> {
        let pdu = self.build_pdu(frame)?;
        let n = pdu.len() / PAYLOAD_SIZE;
        let mut cells = Vec::with_capacity(n);
        for (i, chunk) in pdu.chunks(PAYLOAD_SIZE).enumerate() {
            let mut cell = Cell::with_payload(self.vci, chunk);
            cell.set_last(i == n - 1);
            cells.push(cell);
        }
        Ok(cells)
    }

    /// Scatter-gather segmentation: appends to `out` a cell stream
    /// bit-identical to [`Segmenter::segment`]'s, but the frame's full
    /// 48-byte chunks ride as zero-copy views of `frame`'s buffer. Only
    /// the tail (final partial chunk + pad + trailer — one cell, or two
    /// when the remainder exceeds 40 bytes) is built inline, and the
    /// CRC-32 is folded over the frame in place instead of over a
    /// materialised PDU.
    ///
    /// `out` is an append-target so a steady-state producer can reuse
    /// one scratch `Vec` and never allocate per frame.
    pub fn segment_frame(&self, frame: &FrameView, out: &mut Vec<Cell>) -> Result<(), Aal5Error> {
        let len = frame.len();
        if len > MAX_FRAME {
            return Err(Aal5Error::FrameTooLarge);
        }
        let total = Self::cells_for(len) * PAYLOAD_SIZE;
        let body_cells = len / PAYLOAD_SIZE;
        let remainder = len - body_cells * PAYLOAD_SIZE;
        let tail_len = total - body_cells * PAYLOAD_SIZE; // 48 or 96

        // Synthesise the tail: remainder bytes, zero pad, trailer.
        let mut tail = [0u8; 2 * PAYLOAD_SIZE];
        tail[..remainder].copy_from_slice(&frame[len - remainder..]);
        tail[tail_len - TRAILER_SIZE] = self.uu;
        // CPI byte already zero.
        tail[tail_len - 6..tail_len - 4].copy_from_slice(&(len as u16).to_be_bytes());
        let mut state = crc::update(0xFFFF_FFFF, &frame[..len]);
        state = crc::update(state, &tail[remainder..tail_len - 4]);
        let crc = state ^ 0xFFFF_FFFF;
        tail[tail_len - 4..tail_len].copy_from_slice(&crc.to_be_bytes());

        let tail_cells = tail_len / PAYLOAD_SIZE;
        out.reserve(body_cells + tail_cells);
        for i in 0..body_cells {
            out.push(Cell::with_view(
                self.vci,
                frame.slice(i * PAYLOAD_SIZE, PAYLOAD_SIZE),
            ));
        }
        for (i, chunk) in tail[..tail_len].chunks(PAYLOAD_SIZE).enumerate() {
            let mut cell = Cell::with_payload(self.vci, chunk);
            cell.set_last(i == tail_cells - 1);
            out.push(cell);
        }
        Ok(())
    }
}

/// A reassembled frame: a zero-copy view of the sender's original arena
/// buffer when every body cell arrived intact on the view lane, or an
/// owned buffer from the copying fallback. Either way it dereferences to
/// the frame's payload bytes, and equality compares those bytes — a
/// view and an owned lease holding the same frame are equal.
#[derive(Debug, Clone)]
pub enum FrameLease {
    /// The stitched view of the producer's buffer (fast path).
    View(FrameView),
    /// Materialised bytes (inline cells, mixed buffers, or any anomaly).
    Owned(Vec<u8>),
}

impl FrameLease {
    /// Whether the frame came through without a single payload copy.
    pub fn is_view(&self) -> bool {
        matches!(self, FrameLease::View(_))
    }

    /// Extracts owned bytes (copies when the lease is a view).
    pub(crate) fn into_vec(self) -> Vec<u8> {
        match self {
            FrameLease::View(v) => v.to_vec(),
            FrameLease::Owned(b) => b,
        }
    }
}

impl Deref for FrameLease {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            FrameLease::View(v) => v,
            FrameLease::Owned(b) => b,
        }
    }
}

impl PartialEq for FrameLease {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for FrameLease {}

/// Reassembles cells into frames (the receiving half of AAL5).
///
/// One reassembler holds the partial-frame state of a single virtual
/// circuit, mirroring per-VC reassembly state in an ATM NIC.
///
/// View-payload cells from one buffer arriving in order are stitched
/// without copying (`run`); inline payloads accumulate in `tail` (for a
/// scatter-gather frame that is exactly the synthesised pad/trailer
/// tail). Any deviation — a view after inline bytes, a buffer change, a
/// gap — abandons the fast lane by materialising everything into
/// `spill`, which then follows the copying path's validation to the
/// letter. `spill` being non-empty implies `run` is `None` and `tail`
/// is empty.
#[derive(Debug, Default, Clone)]
pub struct Reassembler {
    /// The contiguous zero-copy body accumulated so far.
    run: Option<FrameView>,
    /// Inline bytes following the run (pad/trailer tail), or the whole
    /// frame when no view cells are involved.
    tail: Vec<u8>,
    /// Materialised PDU after the fast lane was abandoned.
    spill: Vec<u8>,
    /// Frames delivered successfully.
    pub frames_ok: u64,
    /// Frames dropped for CRC or length errors.
    pub frames_bad: u64,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered bytes belonging to a partial frame.
    pub fn partial_len(&self) -> usize {
        self.run.as_ref().map_or(0, |r| r.len()) + self.tail.len() + self.spill.len()
    }

    /// Accepts the next cell of the circuit, copying-path result type.
    /// Equivalent to [`Reassembler::push_frame`] with the lease
    /// flattened to owned bytes.
    pub fn push(&mut self, cell: &Cell) -> Option<Result<Vec<u8>, Aal5Error>> {
        self.push_frame(cell).map(|r| r.map(FrameLease::into_vec))
    }

    /// Accepts the next cell of the circuit.
    ///
    /// Returns `None` while mid-frame; on an end-of-frame cell returns
    /// the validated frame payload — a zero-copy [`FrameLease::View`] of
    /// the producer's buffer when the whole body arrived as contiguous
    /// views, an owned buffer otherwise — or the reassembly error.
    /// Either way the internal state resets for the next frame, so a
    /// corrupted frame does not poison its successors — this is the
    /// property the paper relies on for "protection against rendering or
    /// decompressing faulty tiles".
    pub fn push_frame(&mut self, cell: &Cell) -> Option<Result<FrameLease, Aal5Error>> {
        match cell.payload_view() {
            Some(v) if self.spill.is_empty() && self.tail.is_empty() => match &mut self.run {
                None => self.run = Some(v.clone()),
                Some(run) => {
                    if !run.try_extend(v) {
                        // Buffer change or gap: abandon the fast lane.
                        let run = self.run.take().expect("checked above");
                        self.spill.extend_from_slice(&run);
                        self.spill.extend_from_slice(v);
                    }
                }
            },
            Some(v) => {
                self.materialise();
                self.spill.extend_from_slice(v);
            }
            None if self.spill.is_empty() => self.tail.extend_from_slice(cell.payload()),
            None => self.spill.extend_from_slice(cell.payload()),
        }
        if !cell.is_last() {
            return None;
        }
        Some(self.finish())
    }

    /// Moves the fast-lane state (`run` + `tail`) into `spill`.
    fn materialise(&mut self) {
        if let Some(run) = self.run.take() {
            self.spill.extend_from_slice(&run);
        }
        self.spill.append(&mut self.tail);
    }

    fn finish(&mut self) -> Result<FrameLease, Aal5Error> {
        if !self.spill.is_empty() {
            let pdu = std::mem::take(&mut self.spill);
            return self.finish_owned(pdu);
        }
        let Some(run) = self.run.take() else {
            // Pure inline frame: the copying path as it always was.
            let pdu = std::mem::take(&mut self.tail);
            return self.finish_owned(pdu);
        };
        // Fast path: contiguous views + an inline tail that must hold at
        // least the trailer. The view bytes are immutable arena storage,
        // so they are exactly what the producer segmented; the only
        // bytes to check are the tail's payload prefix and the trailer's
        // bookkeeping. Anything surprising drops to the copying path,
        // which re-validates from scratch (CRC included) in the exact
        // order the reference implementation uses.
        let t = self.tail.len();
        if t < TRAILER_SIZE {
            return self.fallback(run);
        }
        let stored_len = u16::from_be_bytes([self.tail[t - 6], self.tail[t - 5]]) as usize;
        let pdu_len = run.len() + t;
        let max_payload = pdu_len - TRAILER_SIZE;
        if stored_len > max_payload
            || pdu_len - (stored_len + TRAILER_SIZE) >= PAYLOAD_SIZE
            || stored_len < run.len()
        {
            return self.fallback(run);
        }
        let extra = stored_len - run.len();
        let buf = run.buf().clone();
        let start = run.offset();
        // The whole tail must be what the segmenter would synthesise for
        // this buffer and length: the frame's remainder bytes, a zero
        // pad, and a zero CPI octet. Only the CPCS-UU byte and the CRC
        // field are taken on trust — they are bookkeeping the immutable
        // arena already vouches for (see the module docs for the trust
        // boundary).
        if start + stored_len > buf.len()
            || self.tail[..extra] != buf[start + run.len()..start + stored_len]
            || self.tail[extra..t - TRAILER_SIZE].iter().any(|&b| b != 0)
            || self.tail[t - 7] != 0
        {
            return self.fallback(run);
        }
        self.tail.clear();
        self.frames_ok += 1;
        Ok(FrameLease::View(buf.view(start, stored_len)))
    }

    /// Copying-path validation for a frame that arrived on the fast lane
    /// but failed its cheap checks.
    fn fallback(&mut self, run: FrameView) -> Result<FrameLease, Aal5Error> {
        let mut pdu = Vec::with_capacity(run.len() + self.tail.len());
        pdu.extend_from_slice(&run);
        pdu.append(&mut self.tail);
        self.finish_owned(pdu)
    }

    fn finish_owned(&mut self, pdu: Vec<u8>) -> Result<FrameLease, Aal5Error> {
        // Trailer CRC covers the whole PDU including itself; a correct PDU
        // verifies by recomputing over everything but the stored CRC.
        if pdu.len() < TRAILER_SIZE {
            self.frames_bad += 1;
            return Err(Aal5Error::BadLength);
        }
        let (body, crc_bytes) = pdu.split_at(pdu.len() - 4);
        let stored = u32::from_be_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc::crc32(body) != stored {
            self.frames_bad += 1;
            return Err(Aal5Error::BadCrc);
        }
        let len = u16::from_be_bytes([pdu[pdu.len() - 6], pdu[pdu.len() - 5]]) as usize;
        // Valid placements of the payload: it must fit in the PDU minus
        // trailer, and padding must be less than one extra cell.
        let max_payload = pdu.len() - TRAILER_SIZE;
        if len > max_payload || pdu.len() - (len + TRAILER_SIZE) >= PAYLOAD_SIZE {
            self.frames_bad += 1;
            return Err(Aal5Error::BadLength);
        }
        self.frames_ok += 1;
        let mut out = pdu;
        out.truncate(len);
        Ok(FrameLease::Owned(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(frame: &[u8]) -> Vec<u8> {
        let cells = Segmenter::new(5).segment(frame).unwrap();
        let mut r = Reassembler::new();
        for cell in &cells[..cells.len() - 1] {
            assert!(r.push(cell).is_none());
        }
        r.push(cells.last().unwrap()).unwrap().unwrap()
    }

    #[test]
    fn empty_frame_roundtrips() {
        assert_eq!(roundtrip(b""), b"");
    }

    #[test]
    fn exact_multiple_of_payload() {
        let data = vec![7u8; PAYLOAD_SIZE * 3 - TRAILER_SIZE];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn one_byte_over_adds_cell() {
        let small = vec![1u8; PAYLOAD_SIZE - TRAILER_SIZE];
        let big = vec![1u8; PAYLOAD_SIZE - TRAILER_SIZE + 1];
        assert_eq!(Segmenter::new(1).segment(&small).unwrap().len(), 1);
        assert_eq!(Segmenter::new(1).segment(&big).unwrap().len(), 2);
    }

    #[test]
    fn cells_marked_last_only_at_end() {
        let cells = Segmenter::new(9).segment(&[0u8; 300]).unwrap();
        let n = cells.len();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.is_last(), i == n - 1);
            assert_eq!(c.vci(), 9);
        }
    }

    #[test]
    fn corrupt_payload_detected_and_state_resets() {
        let seg = Segmenter::new(3);
        let mut cells = seg.segment(b"good frame that will be corrupted").unwrap();
        cells[0].payload_mut()[0] ^= 0xFF;
        let mut r = Reassembler::new();
        let mut result = None;
        for c in &cells {
            if let Some(res) = r.push(c) {
                result = Some(res);
            }
        }
        assert_eq!(result.unwrap().unwrap_err(), Aal5Error::BadCrc);
        assert_eq!(r.frames_bad, 1);
        // The very next frame reassembles cleanly.
        let good = seg.segment(b"next frame").unwrap();
        let mut out = None;
        for c in &good {
            if let Some(res) = r.push(c) {
                out = Some(res);
            }
        }
        assert_eq!(out.unwrap().unwrap(), b"next frame");
        assert_eq!(r.frames_ok, 1);
    }

    #[test]
    fn lost_last_cell_merges_frames_and_fails_crc() {
        let seg = Segmenter::new(3);
        let a = seg.segment(&[1u8; 100]).unwrap();
        let b = seg.segment(&[2u8; 100]).unwrap();
        let mut r = Reassembler::new();
        // Drop a's last cell: b's frames arrive appended to a's partial data.
        for c in &a[..a.len() - 1] {
            assert!(r.push(c).is_none());
        }
        let mut result = None;
        for c in &b {
            if let Some(res) = r.push(c) {
                result = Some(res);
            }
        }
        assert!(result.unwrap().is_err());
    }

    #[test]
    fn uu_byte_carried() {
        let mut seg = Segmenter::new(1);
        seg.uu = 0xAB;
        let pdu = seg.build_pdu(b"x").unwrap();
        assert_eq!(pdu[pdu.len() - 8], 0xAB);
    }

    #[test]
    fn oversized_frame_rejected() {
        let seg = Segmenter::new(1);
        assert_eq!(
            seg.segment(&vec![0u8; MAX_FRAME + 1]).unwrap_err(),
            Aal5Error::FrameTooLarge
        );
    }

    fn view_cells(frame: &[u8], vci: Vci) -> (pegasus_sim::arena::Arena, Vec<Cell>) {
        let arena = pegasus_sim::arena::Arena::new();
        let buf = arena.frame_from(frame);
        let mut cells = Vec::new();
        Segmenter::new(vci)
            .segment_frame(&buf.view_all(), &mut cells)
            .unwrap();
        (arena, cells)
    }

    #[test]
    fn scatter_gather_cells_match_copying_path_exactly() {
        for len in [0usize, 1, 39, 40, 41, 47, 48, 49, 95, 96, 97, 300, 1999] {
            let frame: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let copied = Segmenter::new(5).segment(&frame).unwrap();
            let (_arena, gathered) = view_cells(&frame, 5);
            assert_eq!(copied.len(), gathered.len(), "len={len}");
            for (a, b) in copied.iter().zip(&gathered) {
                assert_eq!(a, b, "len={len}");
                assert_eq!(a.to_bytes(), b.to_bytes(), "len={len}");
            }
            // Full body chunks ride as views; the tail is inline.
            let body = len / PAYLOAD_SIZE;
            for (i, c) in gathered.iter().enumerate() {
                assert_eq!(c.is_view(), i < body, "len={len} cell={i}");
            }
        }
    }

    #[test]
    fn zero_copy_reassembly_returns_a_view_of_the_source_buffer() {
        let frame: Vec<u8> = (0..500).map(|i| (i % 256) as u8).collect();
        let arena = pegasus_sim::arena::Arena::new();
        let buf = arena.frame_from(&frame);
        let mut cells = Vec::new();
        Segmenter::new(9)
            .segment_frame(&buf.view_all(), &mut cells)
            .unwrap();
        let mut r = Reassembler::new();
        let mut out = None;
        for c in &cells {
            if let Some(res) = r.push_frame(c) {
                out = Some(res.unwrap());
            }
        }
        let lease = out.unwrap();
        assert!(lease.is_view(), "uncorrupted views stitch without copying");
        assert_eq!(&*lease, &frame[..]);
        match &lease {
            FrameLease::View(v) => {
                assert!(pegasus_sim::arena::FrameBuf::same_buffer(v.buf(), &buf));
            }
            FrameLease::Owned(_) => unreachable!(),
        }
        assert_eq!(r.frames_ok, 1);
    }

    #[test]
    fn corrupted_view_cell_falls_back_and_fails_crc() {
        let frame = vec![0xC3u8; 400];
        let (_arena, mut cells) = view_cells(&frame, 3);
        cells[1].payload_mut()[7] ^= 0x10; // materialises: view → inline
        let mut r = Reassembler::new();
        let mut out = None;
        for c in &cells {
            if let Some(res) = r.push_frame(c) {
                out = Some(res);
            }
        }
        assert_eq!(out.unwrap().unwrap_err(), Aal5Error::BadCrc);
        assert_eq!(r.frames_bad, 1);
        // The next zero-copy frame is unaffected.
        let (_arena2, good) = view_cells(b"recovery frame", 3);
        let mut out = None;
        for c in &good {
            if let Some(res) = r.push_frame(c) {
                out = Some(res.unwrap());
            }
        }
        assert_eq!(&*out.unwrap(), b"recovery frame");
    }

    #[test]
    fn dropped_view_cell_detected() {
        let frame = vec![0x5Au8; 400];
        let (_arena, cells) = view_cells(&frame, 3);
        let mut r = Reassembler::new();
        let mut out = None;
        for (i, c) in cells.iter().enumerate() {
            if i == 2 {
                continue; // lost in the fabric
            }
            if let Some(res) = r.push_frame(c) {
                out = Some(res);
            }
        }
        assert!(out.unwrap().is_err(), "a gap in the run cannot verify");
        assert_eq!(r.frames_bad, 1);
    }

    #[test]
    fn lost_last_view_cell_merges_and_fails_like_copying_path() {
        let (_arena_a, a) = view_cells(&[1u8; 100], 3);
        let (_arena_b, b) = view_cells(&[2u8; 100], 3);
        let mut r = Reassembler::new();
        for c in &a[..a.len() - 1] {
            assert!(r.push_frame(c).is_none());
        }
        let mut out = None;
        for c in &b {
            if let Some(res) = r.push_frame(c) {
                out = Some(res);
            }
        }
        assert!(out.unwrap().is_err());
    }

    #[test]
    fn reassembler_handles_interleaved_representations() {
        // A view-segmented frame followed by a copy-segmented frame on
        // the same circuit, and vice versa.
        let seg = Segmenter::new(12);
        let (_arena, viewed) = view_cells(&[0xAAu8; 120], 12);
        let copied = seg.segment(b"copied frame payload").unwrap();
        let mut r = Reassembler::new();
        let mut frames = Vec::new();
        for c in viewed.iter().chain(&copied).chain(&viewed) {
            if let Some(res) = r.push_frame(c) {
                frames.push(res.unwrap());
            }
        }
        assert_eq!(frames.len(), 3);
        assert!(frames[0].is_view());
        assert!(!frames[1].is_view());
        assert!(frames[2].is_view());
        // Equality is over bytes, not representation.
        assert_eq!(frames[0], frames[2]);
        assert_eq!(
            frames[0],
            FrameLease::Owned(frames[0].to_vec()),
            "a view and an owned lease of the same frame compare equal"
        );
        assert_eq!(&*frames[0], &[0xAAu8; 120]);
        assert_eq!(&*frames[1], b"copied frame payload");
    }

    #[test]
    fn cells_for_counts() {
        assert_eq!(Segmenter::cells_for(0), 1);
        assert_eq!(Segmenter::cells_for(40), 1);
        assert_eq!(Segmenter::cells_for(41), 2);
        assert_eq!(Segmenter::cells_for(88), 2);
        assert_eq!(Segmenter::cells_for(89), 3);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(frame in proptest::collection::vec(any::<u8>(), 0..2000)) {
            prop_assert_eq!(roundtrip(&frame), frame);
        }

        #[test]
        fn prop_scatter_gather_equivalent_to_copying_path(
            frame in proptest::collection::vec(any::<u8>(), 0..2000),
        ) {
            let copied = Segmenter::new(7).segment(&frame).unwrap();
            let (_arena, gathered) = view_cells(&frame, 7);
            prop_assert_eq!(&copied, &gathered);
            // And both reassemble — the gathered stream without a copy.
            let mut r = Reassembler::new();
            let mut out = None;
            for c in &gathered {
                if let Some(res) = r.push_frame(c) {
                    out = Some(res.unwrap());
                }
            }
            let lease = out.unwrap();
            prop_assert!(lease.is_view() || frame.len() < PAYLOAD_SIZE);
            prop_assert_eq!(&*lease, &frame[..]);
        }

        #[test]
        fn prop_view_corruption_matches_copying_path_verdict(
            frame in proptest::collection::vec(any::<u8>(), 1..500),
            cell_pick in any::<prop::sample::Index>(),
            byte in 0usize..PAYLOAD_SIZE,
            bit in 0u8..8,
        ) {
            // Corrupt the same cell on both lanes. Flipping a body cell
            // materialises it (copy-on-write), which forces the CRC
            // fallback — verdicts must then match the copying path
            // exactly. Flipping the inline tail may hit one of the
            // trusted trailer-bookkeeping bytes (CPCS-UU, CRC field)
            // the fast path carries without re-validation; the contract
            // there is weaker but still safe: an accepted frame's bytes
            // are a prefix of the true frame, never garbage.
            let mut copied = Segmenter::new(7).segment(&frame).unwrap();
            let (_arena, mut gathered) = view_cells(&frame, 7);
            let idx = cell_pick.index(copied.len());
            let body_cells = frame.len() / PAYLOAD_SIZE;
            copied[idx].payload_mut()[byte] ^= 1 << bit;
            gathered[idx].payload_mut()[byte] ^= 1 << bit;
            let drive = |cells: &[Cell]| {
                let mut r = Reassembler::new();
                let mut out = None;
                for c in cells {
                    if let Some(res) = r.push_frame(c) {
                        out = Some(res);
                    }
                }
                (out.unwrap(), r.frames_ok, r.frames_bad)
            };
            let (a, a_ok, a_bad) = drive(&copied);
            let (b, b_ok, b_bad) = drive(&gathered);
            if idx < body_cells {
                // Body corruption: exact equivalence.
                prop_assert_eq!((a_ok, a_bad), (b_ok, b_bad));
                match (a, b) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(&*x, &*y),
                    (Err(x), Err(y)) => prop_assert_eq!(x, y),
                    (x, y) => prop_assert!(false, "verdicts diverged: {x:?} vs {y:?}"),
                }
            } else {
                // Tail corruption: the copying path always rejects (CRC
                // covers every byte); the fast path may accept a flip in
                // the trusted trailer bytes, but never delivers bytes
                // that differ from the true frame prefix.
                prop_assert!(a.is_err(), "copying path must reject tail flips");
                if let Ok(lease) = b {
                    prop_assert!(lease.len() <= frame.len());
                    prop_assert_eq!(&*lease, &frame[..lease.len()]);
                }
            }
        }

        #[test]
        fn prop_cell_count_formula(len in 0usize..3000) {
            let cells = Segmenter::new(1).segment(&vec![0u8; len]).unwrap();
            prop_assert_eq!(cells.len(), Segmenter::cells_for(len));
        }

        #[test]
        fn prop_any_single_payload_bitflip_detected(
            frame in proptest::collection::vec(any::<u8>(), 1..500),
            cell_pick in any::<prop::sample::Index>(),
            byte in 0usize..PAYLOAD_SIZE,
            bit in 0u8..8,
        ) {
            let mut cells = Segmenter::new(1).segment(&frame).unwrap();
            let idx = cell_pick.index(cells.len());
            cells[idx].payload_mut()[byte] ^= 1 << bit;
            let mut r = Reassembler::new();
            let mut result = None;
            for c in &cells {
                if let Some(res) = r.push(c) {
                    result = Some(res);
                }
            }
            // Either the CRC catches it, or the flip hit pure padding /
            // produced an equally-valid shorter parse — CRC-32 over the
            // whole PDU means any payload flip is caught.
            prop_assert!(result.unwrap().is_err());
        }
    }
}
