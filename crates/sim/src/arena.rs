//! The frame-buffer arena: reference-counted, immutable media buffers.
//!
//! Pegasus puts every machine in one distributed address space precisely
//! so that "multimedia data can be moved between the producers and the
//! consumers of such data efficiently" — without copying at each
//! subsystem boundary. This module is that argument made concrete for
//! the reproduction: a [`FrameBuf`] is an immutable byte buffer leased
//! from an [`Arena`]; a [`FrameView`] is a cheap `(buffer, offset, len)`
//! slice of one. Devices render into a leased buffer, AAL5 segmentation
//! takes 48-byte views of it, the switch fabric forwards those views by
//! refcount bump, and reassembly on the far side stitches them back into
//! a single view of the original buffer — the payload bytes are written
//! once and never copied on the path.
//!
//! The engine is single-threaded, so reference counting is plain
//! non-atomic [`Rc`]; "lease accounting" is deterministic integer
//! bookkeeping, not atomics. Returned buffers go back on the arena's
//! free list with their capacity intact, so a steady-state pipeline
//! stops allocating entirely.
//!
//! # Lease discipline
//!
//! * [`Arena::lease`] grants a [`FrameBufMut`] — the one window in a
//!   buffer's life where it may be written.
//! * [`FrameBufMut::freeze`] seals it into an immutable [`FrameBuf`];
//!   clones and [`FrameView`]s only bump the refcount.
//! * When the last handle drops, the backing storage returns to the
//!   arena pool and the lease is counted as returned.
//!
//! The invariants the property tests pin down: every lease granted is
//! eventually returned, `outstanding` never underflows, and the pool's
//! high-water mark equals the number of fresh allocations — a buffer is
//! only ever created when every previously created buffer is still
//! leased out.
//!
//! # Examples
//!
//! ```
//! use pegasus_sim::arena::Arena;
//!
//! let arena = Arena::new();
//! let mut lease = arena.lease();
//! lease.extend_from_slice(b"one frame of media data");
//! let frame = lease.freeze();
//! let view = frame.view(4, 5);
//! assert_eq!(&*view, b"frame");
//! drop(view);
//! drop(frame); // storage returns to the pool …
//! let again = arena.lease(); // … and is recycled, not reallocated
//! assert_eq!(arena.stats().fresh_allocs, 1);
//! drop(again);
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

/// Deterministic lease-accounting counters of one [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Leases handed out by [`Arena::lease`].
    pub leases_granted: u64,
    /// Leases whose storage has come back to the pool.
    pub leases_returned: u64,
    /// Leases currently out (granted − returned).
    pub outstanding: u64,
    /// Peak simultaneous outstanding leases.
    pub high_water: u64,
    /// Leases that had to allocate fresh storage (pool was empty). In a
    /// steady-state pipeline this stops growing: recycling covers every
    /// subsequent lease.
    pub fresh_allocs: u64,
}

/// Shared state behind an [`Arena`] and every buffer it has leased.
#[derive(Default)]
struct ArenaInner {
    pool: RefCell<Vec<Vec<u8>>>,
    granted: Cell<u64>,
    returned: Cell<u64>,
    high_water: Cell<u64>,
    fresh: Cell<u64>,
}

impl ArenaInner {
    fn take_storage(self: &Rc<Self>) -> Vec<u8> {
        let recycled = self.pool.borrow_mut().pop();
        if recycled.is_none() {
            self.fresh.set(self.fresh.get() + 1);
        }
        self.granted.set(self.granted.get() + 1);
        let out = self.granted.get() - self.returned.get();
        if out > self.high_water.get() {
            self.high_water.set(out);
        }
        recycled.unwrap_or_default()
    }

    fn recycle(&self, mut storage: Vec<u8>) {
        self.returned.set(self.returned.get() + 1);
        debug_assert!(
            self.returned.get() <= self.granted.get(),
            "arena lease refcount went negative"
        );
        storage.clear();
        self.pool.borrow_mut().push(storage);
    }
}

/// A pool of recyclable media buffers with deterministic lease
/// accounting. Cloning an `Arena` yields another handle to the same
/// pool.
#[derive(Clone, Default)]
pub struct Arena {
    inner: Rc<ArenaInner>,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Leases a writable, initially empty buffer (recycled capacity when
    /// the pool has one).
    pub fn lease(&self) -> FrameBufMut {
        FrameBufMut {
            data: Some(self.inner.take_storage()),
            arena: self.inner.clone(),
        }
    }

    /// Leases a buffer of `len` zero bytes.
    pub fn lease_zeroed(&self, len: usize) -> FrameBufMut {
        let mut b = self.lease();
        b.resize(len, 0);
        b
    }

    /// Leases, fills with `bytes`, and freezes in one step.
    pub fn frame_from(&self, bytes: &[u8]) -> FrameBuf {
        let mut b = self.lease();
        b.extend_from_slice(bytes);
        b.freeze()
    }

    /// Current lease-accounting counters.
    pub fn stats(&self) -> ArenaStats {
        let i = &self.inner;
        ArenaStats {
            leases_granted: i.granted.get(),
            leases_returned: i.returned.get(),
            outstanding: i.granted.get() - i.returned.get(),
            high_water: i.high_water.get(),
            fresh_allocs: i.fresh.get(),
        }
    }

    /// Buffers resting in the free pool right now.
    pub fn pooled(&self) -> usize {
        self.inner.pool.borrow().len()
    }
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("stats", &self.stats())
            .finish()
    }
}

/// A leased buffer in its writable phase. Dereferences to `Vec<u8>`, so
/// the producer fills it with the usual `extend_from_slice` / `resize`
/// vocabulary, then seals it with [`FrameBufMut::freeze`]. Dropping an
/// unfrozen lease returns the storage to the pool.
pub struct FrameBufMut {
    /// `Some` until frozen or dropped.
    data: Option<Vec<u8>>,
    arena: Rc<ArenaInner>,
}

impl FrameBufMut {
    /// Seals the buffer: from here on it is immutable and shared by
    /// refcount.
    pub fn freeze(mut self) -> FrameBuf {
        let data = self.data.take().expect("unfrozen lease holds storage");
        FrameBuf(Rc::new(FrameInner {
            data,
            arena: self.arena.clone(),
        }))
    }
}

impl Deref for FrameBufMut {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        self.data.as_ref().expect("unfrozen lease holds storage")
    }
}

impl DerefMut for FrameBufMut {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.data.as_mut().expect("unfrozen lease holds storage")
    }
}

impl Drop for FrameBufMut {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            self.arena.recycle(data);
        }
    }
}

impl fmt::Debug for FrameBufMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FrameBufMut({} bytes)", self.len())
    }
}

struct FrameInner {
    data: Vec<u8>,
    arena: Rc<ArenaInner>,
}

impl Drop for FrameInner {
    fn drop(&mut self) {
        self.arena.recycle(std::mem::take(&mut self.data));
    }
}

/// An immutable, reference-counted frame buffer. `Clone` is a refcount
/// bump; the bytes live until the last [`FrameBuf`] or [`FrameView`]
/// over them drops, at which point the storage returns to its arena.
#[derive(Clone)]
pub struct FrameBuf(Rc<FrameInner>);

impl FrameBuf {
    /// A view of `len` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn view(&self, offset: usize, len: usize) -> FrameView {
        assert!(offset + len <= self.0.data.len(), "view out of bounds");
        FrameView {
            buf: self.clone(),
            offset,
            len,
        }
    }

    /// A view of the whole buffer.
    pub fn view_all(&self) -> FrameView {
        self.view(0, self.0.data.len())
    }

    /// Whether two handles share one underlying buffer (identity, not
    /// byte equality).
    pub fn same_buffer(a: &FrameBuf, b: &FrameBuf) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// Number of live handles (buffers + views) on this storage.
    pub fn handle_count(&self) -> usize {
        Rc::strong_count(&self.0)
    }
}

impl Deref for FrameBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0.data
    }
}

impl fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FrameBuf({} bytes, {} handles)",
            self.0.data.len(),
            self.handle_count()
        )
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for FrameBuf {}

/// A `(buffer, offset, len)` slice of a [`FrameBuf`]. `Clone` is a
/// refcount bump — this is the currency the zero-copy data path trades
/// in: cell payloads, reassembled frames, and storage reads are all
/// views.
#[derive(Clone)]
pub struct FrameView {
    buf: FrameBuf,
    offset: usize,
    len: usize,
}

impl FrameView {
    /// The view's offset within its buffer.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying buffer handle.
    pub fn buf(&self) -> &FrameBuf {
        &self.buf
    }

    /// A sub-view: `len` bytes starting `offset` into this view.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the view.
    pub fn slice(&self, offset: usize, len: usize) -> FrameView {
        assert!(offset + len <= self.len, "sub-view out of bounds");
        FrameView {
            buf: self.buf.clone(),
            offset: self.offset + offset,
            len,
        }
    }

    /// Whether two views share one underlying buffer.
    pub fn same_buffer(&self, other: &FrameView) -> bool {
        FrameBuf::same_buffer(&self.buf, &other.buf)
    }

    /// Whether `next` begins exactly where this view ends, in the same
    /// buffer — the reassembly stitch test.
    pub(crate) fn contiguous_with(&self, next: &FrameView) -> bool {
        self.same_buffer(next) && self.offset + self.len == next.offset
    }

    /// Extends this view over an adjacent one; `None` unless
    /// `FrameView::contiguous_with` holds.
    pub fn join(&self, next: &FrameView) -> Option<FrameView> {
        if self.contiguous_with(next) {
            Some(FrameView {
                buf: self.buf.clone(),
                offset: self.offset,
                len: self.len + next.len,
            })
        } else {
            None
        }
    }

    /// In-place [`FrameView::join`]: grows this view over `next` and
    /// returns `true` when contiguous, with no refcount traffic — the
    /// reassembler's per-cell stitch.
    pub fn try_extend(&mut self, next: &FrameView) -> bool {
        if self.contiguous_with(next) {
            self.len += next.len;
            true
        } else {
            false
        }
    }
}

impl Deref for FrameView {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.offset..self.offset + self.len]
    }
}

impl fmt::Debug for FrameView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FrameView(+{}, {} bytes)", self.offset, self.len)
    }
}

impl PartialEq for FrameView {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for FrameView {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_freeze_view_roundtrip() {
        let arena = Arena::new();
        let mut b = arena.lease();
        b.extend_from_slice(b"hello arena");
        let f = b.freeze();
        assert_eq!(&f[..5], b"hello");
        let v = f.view(6, 5);
        assert_eq!(&*v, b"arena");
        assert_eq!(v.offset(), 6);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn storage_recycles_and_accounting_balances() {
        let arena = Arena::new();
        for _ in 0..10 {
            let mut b = arena.lease();
            b.extend_from_slice(&[7u8; 1000]);
            let f = b.freeze();
            let v = f.view_all();
            drop(f);
            drop(v);
        }
        let s = arena.stats();
        assert_eq!(s.leases_granted, 10);
        assert_eq!(s.leases_returned, 10);
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.high_water, 1);
        assert_eq!(s.fresh_allocs, 1, "nine of ten leases recycled");
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn views_keep_storage_alive() {
        let arena = Arena::new();
        let f = arena.frame_from(b"persistent");
        let v = f.view(0, 4);
        drop(f);
        assert_eq!(arena.stats().outstanding, 1, "view still holds the lease");
        assert_eq!(&*v, b"pers");
        drop(v);
        assert_eq!(arena.stats().outstanding, 0);
    }

    #[test]
    fn dropping_unfrozen_lease_returns_storage() {
        let arena = Arena::new();
        let mut b = arena.lease();
        b.extend_from_slice(&[1, 2, 3]);
        drop(b);
        let s = arena.stats();
        assert_eq!(s.leases_returned, 1);
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn contiguity_and_join() {
        let arena = Arena::new();
        let f = arena.frame_from(&[0u8; 100]);
        let a = f.view(0, 48);
        let b = f.view(48, 48);
        let c = f.view(50, 10);
        assert!(a.contiguous_with(&b));
        assert!(!a.contiguous_with(&c));
        let ab = a.join(&b).expect("adjacent");
        assert_eq!((ab.offset(), ab.len()), (0, 96));
        assert!(a.join(&c).is_none());
        // Identical bytes in a different buffer are not contiguous.
        let g = arena.frame_from(&[0u8; 100]);
        assert!(!a.contiguous_with(&g.view(48, 48)));
        assert!(a.same_buffer(&b));
        assert!(!a.same_buffer(&g.view_all()));
    }

    #[test]
    fn sub_views_compose() {
        let arena = Arena::new();
        let f = arena.frame_from(b"abcdefghij");
        let v = f.view(2, 6); // cdefgh
        let w = v.slice(1, 3); // def
        assert_eq!(&*w, b"def");
        assert_eq!(w.offset(), 3);
    }

    #[test]
    fn fresh_allocs_track_concurrent_peak() {
        let arena = Arena::new();
        let a = arena.frame_from(&[1]);
        let b = arena.frame_from(&[2]);
        let c = arena.frame_from(&[3]);
        drop((a, b, c));
        let d = arena.frame_from(&[4]);
        drop(d);
        let s = arena.stats();
        assert_eq!(s.fresh_allocs, 3);
        assert_eq!(s.high_water, 3);
    }

    #[test]
    #[should_panic(expected = "view out of bounds")]
    fn view_bounds_checked() {
        let arena = Arena::new();
        let f = arena.frame_from(&[0u8; 4]);
        let _ = f.view(2, 3);
    }
}
