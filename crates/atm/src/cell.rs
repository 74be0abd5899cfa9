//! The ATM cell.
//!
//! An ATM cell is 53 bytes: a 5-byte header and a 48-byte payload. The
//! header carries (for UNI cells) a 4-bit generic flow control field, an
//! 8-bit virtual path identifier, a 16-bit virtual circuit identifier, a
//! 3-bit payload-type indicator, the cell-loss-priority bit, and a header
//! checksum octet (HEC). The payload-type indicator's least significant
//! bit is the AAL-user bit that AAL5 uses to mark the final cell of a
//! frame.
//!
//! # Payload representation
//!
//! Inside the simulated single address space, a cell's 48 payload bytes
//! are either [`Payload::Inline`] (an owned array — signalling, audio,
//! anything built byte-by-byte) or [`Payload::View`] (a refcounted
//! [`FrameView`] into the arena buffer the frame was produced in).
//! Forwarding a view cell through links and switches bumps a refcount
//! instead of copying 48 bytes — the paper's no-copy data path. The two
//! representations are observationally identical: [`Cell::payload`]
//! always yields the same 48 bytes, equality and wire serialization
//! compare/emit bytes, and [`Cell::payload_mut`] transparently
//! materialises a view into an owned copy before mutation (the arena
//! buffer itself is immutable).

use pegasus_sim::arena::FrameView;

/// Size of a full ATM cell in bytes.
pub const CELL_SIZE: usize = 53;
/// Size of the cell payload in bytes.
pub const PAYLOAD_SIZE: usize = 48;
/// Size of the cell header in bytes.
pub const HEADER_SIZE: usize = 5;

/// A virtual circuit identifier (16 bits on the wire).
pub type Vci = u16;

/// CRC-8 polynomial of the header checksum: `x^8 + x^2 + x + 1`.
const HEC_POLY: u8 = 0x07;

/// Builds the 256-entry CRC-8 lookup table at compile time: entry `i` is
/// the CRC-8 of the single byte `i`.
const fn build_hec_table() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ HEC_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static HEC_TABLE: [u8; 256] = build_hec_table();

/// The 48 payload bytes of a cell: owned, or a refcounted view into an
/// arena frame buffer. See the module docs for the equivalence contract.
#[derive(Debug, Clone)]
pub enum Payload {
    /// An owned copy of the bytes.
    Inline([u8; PAYLOAD_SIZE]),
    /// A zero-copy slice of an immutable arena buffer; always exactly
    /// [`PAYLOAD_SIZE`] bytes.
    View(FrameView),
}

/// One ATM cell.
///
/// Cells are `Clone` and small; the simulator moves them freely between
/// queues the same way hardware moves them between port buffers. Cloning
/// a view-payload cell bumps a refcount rather than copying the bytes.
///
/// # Examples
///
/// ```
/// use pegasus_atm::cell::Cell;
///
/// let mut cell = Cell::new(42);
/// cell.set_last(true);
/// let bytes = cell.to_bytes();
/// let back = Cell::from_bytes(&bytes).unwrap();
/// assert_eq!(back.vci(), 42);
/// assert!(back.is_last());
/// ```
#[derive(Debug, Clone)]
pub struct Cell {
    gfc: u8,
    vpi: u8,
    vci: Vci,
    pti: u8,
    clp: bool,
    payload: Payload,
}

impl PartialEq for Cell {
    fn eq(&self, other: &Self) -> bool {
        self.gfc == other.gfc
            && self.vpi == other.vpi
            && self.vci == other.vci
            && self.pti == other.pti
            && self.clp == other.clp
            && self.payload() == other.payload()
    }
}
impl Eq for Cell {}

impl Cell {
    /// Creates a zero-payload cell on virtual circuit `vci`.
    pub fn new(vci: Vci) -> Self {
        Cell {
            gfc: 0,
            vpi: 0,
            vci,
            pti: 0,
            clp: false,
            payload: Payload::Inline([0; PAYLOAD_SIZE]),
        }
    }

    /// Creates a cell on `vci` with the given payload bytes.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than [`PAYLOAD_SIZE`]; shorter data is
    /// zero-padded, matching what AAL5 segmentation produces.
    pub fn with_payload(vci: Vci, data: &[u8]) -> Self {
        assert!(
            data.len() <= PAYLOAD_SIZE,
            "payload too large: {}",
            data.len()
        );
        let mut cell = Cell::new(vci);
        cell.payload_mut()[..data.len()].copy_from_slice(data);
        cell
    }

    /// Creates a cell on `vci` whose payload is a zero-copy view of an
    /// arena frame buffer.
    ///
    /// # Panics
    ///
    /// Panics unless `view` is exactly [`PAYLOAD_SIZE`] bytes — AAL5
    /// scatter-gather only takes full-cell slices of a frame; partial
    /// tails are synthesised inline.
    pub(crate) fn with_view(vci: Vci, view: FrameView) -> Self {
        assert_eq!(
            view.len(),
            PAYLOAD_SIZE,
            "view cells are exactly one payload"
        );
        Cell {
            gfc: 0,
            vpi: 0,
            vci,
            pti: 0,
            clp: false,
            payload: Payload::View(view),
        }
    }

    /// The 48 payload bytes, whichever representation carries them.
    pub fn payload(&self) -> &[u8] {
        match &self.payload {
            Payload::Inline(a) => a,
            Payload::View(v) => v,
        }
    }

    /// Mutable access to the payload. A view payload is first
    /// materialised into an owned copy (copy-on-write): arena buffers
    /// are immutable, so corruption and in-place edits only ever touch a
    /// private copy.
    pub fn payload_mut(&mut self) -> &mut [u8; PAYLOAD_SIZE] {
        if let Payload::View(v) = &self.payload {
            let mut owned = [0u8; PAYLOAD_SIZE];
            owned.copy_from_slice(v);
            self.payload = Payload::Inline(owned);
        }
        match &mut self.payload {
            Payload::Inline(a) => a,
            Payload::View(_) => unreachable!("view materialised above"),
        }
    }

    /// The payload view, when this cell rides the zero-copy lane.
    pub fn payload_view(&self) -> Option<&FrameView> {
        match &self.payload {
            Payload::View(v) => Some(v),
            Payload::Inline(_) => None,
        }
    }

    /// Whether the payload is a zero-copy arena view.
    pub fn is_view(&self) -> bool {
        matches!(self.payload, Payload::View(_))
    }

    /// The cell's virtual circuit identifier.
    pub fn vci(&self) -> Vci {
        self.vci
    }

    /// Rewrites the VCI (what a switch does at each hop).
    pub fn set_vci(&mut self, vci: Vci) {
        self.vci = vci;
    }

    /// True when the AAL-user bit (PTI bit 0) marks this as the last cell
    /// of an AAL5 frame.
    pub fn is_last(&self) -> bool {
        self.pti & 0b001 != 0
    }

    /// Sets or clears the AAL5 end-of-frame marker.
    pub fn set_last(&mut self, last: bool) {
        if last {
            self.pti |= 0b001;
        } else {
            self.pti &= !0b001;
        }
    }

    /// Computes the HEC octet over the first four header bytes.
    ///
    /// The HEC is CRC-8 with polynomial `x^8 + x^2 + x + 1` (0x07), with
    /// the ITU-mandated 0x55 coset added. One lookup per header byte in
    /// a compile-time-built 256-entry table, so header generation and
    /// verification stay off the bit-loop.
    pub(crate) fn hec(header: &[u8; 4]) -> u8 {
        let mut crc: u8 = 0;
        for &b in header {
            crc = HEC_TABLE[(crc ^ b) as usize];
        }
        crc ^ 0x55
    }

    /// Serializes the cell to its 53-byte wire format.
    pub fn to_bytes(&self) -> [u8; CELL_SIZE] {
        let mut out = [0u8; CELL_SIZE];
        // UNI header layout:
        //  byte0: GFC[3:0] VPI[7:4]
        //  byte1: VPI[3:0] VCI[15:12]
        //  byte2: VCI[11:4]
        //  byte3: VCI[3:0] PTI[2:0] CLP
        //  byte4: HEC
        out[0] = (self.gfc << 4) | (self.vpi >> 4);
        out[1] = (self.vpi << 4) | ((self.vci >> 12) as u8 & 0x0F);
        out[2] = (self.vci >> 4) as u8;
        out[3] = ((self.vci as u8 & 0x0F) << 4) | (self.pti << 1) | self.clp as u8;
        let hdr4 = [out[0], out[1], out[2], out[3]];
        out[4] = Self::hec(&hdr4);
        out[HEADER_SIZE..].copy_from_slice(self.payload());
        out
    }

    /// Parses a cell from its wire format, verifying the HEC.
    ///
    /// Returns `None` when the buffer is not exactly [`CELL_SIZE`] bytes
    /// or the header checksum fails.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != CELL_SIZE {
            return None;
        }
        let hdr4 = [bytes[0], bytes[1], bytes[2], bytes[3]];
        if Self::hec(&hdr4) != bytes[4] {
            return None;
        }
        let gfc = bytes[0] >> 4;
        let vpi = (bytes[0] << 4) | (bytes[1] >> 4);
        let vci = (((bytes[1] & 0x0F) as u16) << 12)
            | ((bytes[2] as u16) << 4)
            | ((bytes[3] >> 4) as u16);
        let pti = (bytes[3] >> 1) & 0b111;
        let clp = bytes[3] & 1 != 0;
        let mut payload = [0u8; PAYLOAD_SIZE];
        payload.copy_from_slice(&bytes[HEADER_SIZE..]);
        Some(Cell {
            gfc,
            vpi,
            vci,
            pti,
            clp,
            payload: Payload::Inline(payload),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_plain() {
        let mut c = Cell::with_payload(0x1234, b"hello");
        c.vpi = 0xAB;
        c.clp = true;
        c.set_last(true);
        let bytes = c.to_bytes();
        let back = Cell::from_bytes(&bytes).expect("valid cell");
        assert_eq!(back, c);
        assert_eq!(back.vci(), 0x1234);
        assert_eq!(back.vpi, 0xAB);
        assert!(back.clp);
        assert!(back.is_last());
        assert_eq!(&back.payload()[..5], b"hello");
    }

    #[test]
    fn view_payload_roundtrips_and_compares_equal_to_inline() {
        use pegasus_sim::arena::Arena;
        let arena = Arena::new();
        let mut bytes = vec![0u8; PAYLOAD_SIZE];
        bytes[..5].copy_from_slice(b"hello");
        let frame = arena.frame_from(&bytes);
        let mut vc = Cell::with_view(0x1234, frame.view_all());
        vc.set_last(true);
        let mut ic = Cell::with_payload(0x1234, b"hello");
        ic.set_last(true);
        assert!(vc.is_view());
        assert!(!ic.is_view());
        assert_eq!(vc, ic, "representation must not affect equality");
        assert_eq!(vc.to_bytes(), ic.to_bytes());
        // Wire parsing always lands inline.
        assert!(!Cell::from_bytes(&vc.to_bytes()).unwrap().is_view());
    }

    #[test]
    fn payload_mut_materialises_views_copy_on_write() {
        use pegasus_sim::arena::Arena;
        let arena = Arena::new();
        let frame = arena.frame_from(&[9u8; PAYLOAD_SIZE]);
        let mut cell = Cell::with_view(7, frame.view_all());
        let twin = cell.clone();
        cell.payload_mut()[0] = 0;
        assert!(!cell.is_view(), "mutation detaches from the arena");
        assert!(twin.is_view(), "the clone still rides the view");
        assert_eq!(frame[0], 9, "the arena buffer is untouched");
        assert_eq!(cell.payload()[0], 0);
    }

    #[test]
    #[should_panic(expected = "exactly one payload")]
    fn partial_views_rejected() {
        use pegasus_sim::arena::Arena;
        let arena = Arena::new();
        let frame = arena.frame_from(&[0u8; 10]);
        let _ = Cell::with_view(1, frame.view_all());
    }

    #[test]
    fn hec_detects_header_corruption() {
        let c = Cell::new(99);
        let mut bytes = c.to_bytes();
        bytes[2] ^= 0x40;
        assert!(Cell::from_bytes(&bytes).is_none());
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(Cell::from_bytes(&[0u8; 52]).is_none());
        assert!(Cell::from_bytes(&[0u8; 54]).is_none());
    }

    #[test]
    fn last_bit_toggles() {
        let mut c = Cell::new(1);
        assert!(!c.is_last());
        c.set_last(true);
        assert!(c.is_last());
        c.set_last(false);
        assert!(!c.is_last());
    }

    #[test]
    fn vci_full_range_roundtrips() {
        for vci in [0u16, 1, 0x00FF, 0x0FFF, 0x8000, 0xFFFF] {
            let c = Cell::new(vci);
            let back = Cell::from_bytes(&c.to_bytes()).unwrap();
            assert_eq!(back.vci(), vci);
        }
    }

    #[test]
    fn payload_too_large_panics() {
        let data = [0u8; PAYLOAD_SIZE + 1];
        assert!(std::panic::catch_unwind(|| Cell::with_payload(1, &data)).is_err());
    }

    #[test]
    fn hec_known_coset() {
        // All-zero header: CRC-8 of zeros is 0, plus coset 0x55.
        assert_eq!(Cell::hec(&[0, 0, 0, 0]), 0x55);
    }

    /// The pre-table implementation, kept as the reference oracle.
    fn hec_bitwise(header: &[u8; 4]) -> u8 {
        let mut crc: u8 = 0;
        for &b in header {
            crc ^= b;
            for _ in 0..8 {
                if crc & 0x80 != 0 {
                    crc = (crc << 1) ^ 0x07;
                } else {
                    crc <<= 1;
                }
            }
        }
        crc ^ 0x55
    }

    #[test]
    fn hec_table_matches_bitwise_reference() {
        // Walk each byte position through all 256 values, plus a dense
        // pseudo-random sweep.
        for pos in 0..4 {
            for v in 0..=255u8 {
                let mut hdr = [0x12, 0x34, 0x56, 0x78];
                hdr[pos] = v;
                assert_eq!(Cell::hec(&hdr), hec_bitwise(&hdr), "pos={pos} v={v:#04x}");
            }
        }
        let mut x: u32 = 0xDEAD_BEEF;
        for _ in 0..10_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let hdr = x.to_le_bytes();
            assert_eq!(Cell::hec(&hdr), hec_bitwise(&hdr));
        }
    }
}
