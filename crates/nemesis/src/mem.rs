//! The single-address-space memory model (§3.1).
//!
//! "A Nemesis kernel provides a number of distinct, schedulable entities,
//! called domains. While all domains share the same virtual address
//! space, privacy and protection are implemented using the appropriate
//! access rights in the virtual address translations."
//!
//! This module models:
//!
//! * **Stretches** — contiguous regions of the single 64-bit space, each
//!   carrying per-protection-domain access rights (the paper's examples:
//!   shared libraries readable everywhere, a unidirectional channel
//!   mapped read/write at the source and read-only at the sink).
//! * **The relocation cache** — the cost of a single address space is
//!   load-time relocation, amortized by "aim\[ing\] to reload an
//!   application at the same virtual address at which it was last
//!   executed", helped by sparse 64-bit allocation: "allocating the top
//!   32 address bits ... based on a 32-bit hash function of the code".
//!   A relocation costs `RELOC_COST` (10 ms), a reuse `REUSE_COST`
//!   (50 µs).
//! * **Context-switch costs** — the benefit: "removal of virtual address
//!   aliases which can result in significant context switch costs with
//!   caches accessed by virtual address". The machine is a DECstation
//!   5000: [`SINGLE_AS_SWITCH`] is 3 µs, and [`aliased_switch`] adds
//!   20 ns (`PER_LINE_FLUSH`) per dirty line of its 4,096-line
//!   (`CACHE_LINES`) virtual cache.

use std::collections::{BTreeMap, HashMap};

use pegasus_sim::time::Ns;

/// A virtual address in the single 64-bit space.
pub type VAddr = u64;

/// A protection domain identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PdId(pub u32);

/// Access rights a protection domain holds on a stretch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rights {
    /// May read.
    pub read: bool,
    /// May write.
    pub write: bool,
    /// May execute.
    pub execute: bool,
}

impl Rights {
    /// Read-only access.
    pub const RO: Rights = Rights {
        read: true,
        write: false,
        execute: false,
    };
    /// Read-write access.
    pub const RW: Rights = Rights {
        read: true,
        write: true,
        execute: false,
    };
    /// Read-execute access (code).
    pub const RX: Rights = Rights {
        read: true,
        write: false,
        execute: true,
    };

    /// No access at all.
    pub fn none(self) -> bool {
        !self.read && !self.write && !self.execute
    }
}

/// The kind of access being attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An instruction fetch.
    Execute,
}

/// A protection fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No stretch maps the address.
    Unmapped(VAddr),
    /// The stretch exists but the domain lacks the right.
    Protection(VAddr, Access),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Unmapped(a) => write!(f, "unmapped address {a:#x}"),
            Fault::Protection(a, k) => write!(f, "protection fault at {a:#x} ({k:?})"),
        }
    }
}

impl std::error::Error for Fault {}

/// Identifier of a stretch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StretchId(pub usize);

#[derive(Debug, Clone)]
struct Stretch {
    base: VAddr,
    len: u64,
    rights: HashMap<PdId, Rights>,
}

/// The single system-wide address space.
///
/// # Examples
///
/// ```
/// use pegasus_nemesis::mem::{Access, AddressSpace, PdId, Rights};
///
/// let mut aspace = AddressSpace::new();
/// let src = PdId(1);
/// let sink = PdId(2);
/// // A unidirectional channel: read/write at the source, read-only at
/// // the sink — the paper's own example.
/// let chan = aspace.alloc_stretch(0x4000, None).unwrap();
/// aspace.grant(chan, src, Rights::RW);
/// aspace.grant(chan, sink, Rights::RO);
/// let base = aspace.stretch_base(chan);
/// assert!(aspace.check(src, base, Access::Write).is_ok());
/// assert!(aspace.check(sink, base, Access::Write).is_err());
/// assert!(aspace.check(sink, base, Access::Read).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct AddressSpace {
    stretches: Vec<Stretch>,
    by_base: BTreeMap<VAddr, usize>,
    next_anon: VAddr,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            stretches: Vec::new(),
            by_base: BTreeMap::new(),
            // Anonymous allocations grow from the middle of the space,
            // far from hash-placed images.
            next_anon: 0x0000_7000_0000_0000,
        }
    }

    /// Allocates a stretch of `len` bytes, at `at` if given (failing on
    /// overlap) or at the next anonymous address otherwise.
    pub fn alloc_stretch(&mut self, len: u64, at: Option<VAddr>) -> Result<StretchId, Fault> {
        assert!(len > 0, "stretch length must be positive");
        let base = match at {
            Some(base) => {
                if self.overlaps(base, len) {
                    return Err(Fault::Unmapped(base)); // address unavailable
                }
                base
            }
            None => {
                let base = self.next_anon;
                self.next_anon += len.next_multiple_of(0x1000) + 0x1000;
                base
            }
        };
        self.stretches.push(Stretch {
            base,
            len,
            rights: HashMap::new(),
        });
        let id = self.stretches.len() - 1;
        self.by_base.insert(base, id);
        Ok(StretchId(id))
    }

    fn overlaps(&self, base: VAddr, len: u64) -> bool {
        let end = base.saturating_add(len);
        // A stretch starting before `end` and finishing after `base`.
        if let Some((_, &idx)) = self.by_base.range(..end).next_back() {
            let s = &self.stretches[idx];
            if s.base + s.len > base {
                return true;
            }
        }
        false
    }

    /// Base address of a stretch.
    pub fn stretch_base(&self, id: StretchId) -> VAddr {
        self.stretches[id.0].base
    }

    /// Grants `rights` on `stretch` to protection domain `pd` (the
    /// explicit arrangement the paper requires for sharing).
    pub fn grant(&mut self, stretch: StretchId, pd: PdId, rights: Rights) {
        self.stretches[stretch.0].rights.insert(pd, rights);
    }

    /// Checks an access by `pd` at `addr`.
    pub fn check(&self, pd: PdId, addr: VAddr, access: Access) -> Result<(), Fault> {
        let Some((_, &idx)) = self.by_base.range(..=addr).next_back() else {
            return Err(Fault::Unmapped(addr));
        };
        let s = &self.stretches[idx];
        if addr >= s.base + s.len {
            return Err(Fault::Unmapped(addr));
        }
        let rights = s.rights.get(&pd).copied().unwrap_or_default();
        let ok = match access {
            Access::Read => rights.read,
            Access::Write => rights.write,
            Access::Execute => rights.execute,
        };
        if ok {
            Ok(())
        } else {
            Err(Fault::Protection(addr, access))
        }
    }
}

/// FNV-1a, the 32-bit hash used to place images in the sparse space.
pub(crate) fn hash32(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Outcome of loading an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadResult {
    /// Where the image was placed.
    pub base: VAddr,
    /// Whether a cached relocation could be reused (same address as the
    /// previous execution).
    pub reused: bool,
    /// Relocation cost paid.
    pub cost: Ns,
}

/// Cost of relocating one image from scratch: ≈ 10 ms for a large
/// binary in 1994.
const RELOC_COST: Ns = 10_000_000;

/// Cost of validating and reusing a cached relocation: ≈ 50 µs.
const REUSE_COST: Ns = 50_000;

/// The relocation cache: places images by code hash and remembers where
/// each image last ran so the (expensive) relocation pass can be skipped
/// on reuse.
#[derive(Debug)]
pub struct ImageLoader {
    aspace: AddressSpace,
    /// image name → (stretch base, still resident).
    cache: HashMap<String, VAddr>,
    /// Loads that reused a cached relocation.
    pub hits: u64,
    /// Loads that paid full relocation.
    pub misses: u64,
}

impl Default for ImageLoader {
    fn default() -> Self {
        Self::new()
    }
}

impl ImageLoader {
    /// Creates a loader over a fresh address space.
    pub fn new() -> Self {
        ImageLoader {
            aspace: AddressSpace::new(),
            cache: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Loads `image` (identified by name; the hash stands in for a hash
    /// of the code itself) of `len` bytes.
    ///
    /// Placement: top 32 bits from the hash, bottom 32 bits zero; on
    /// collision with a live stretch, linear-probe the next 4 GiB slot.
    /// If the image was loaded before and its slot is free or still
    /// holds it, the cached relocation is reused.
    pub fn load(&mut self, image: &str, len: u64) -> LoadResult {
        if let Some(&base) = self.cache.get(image) {
            // Already placed previously: reuse the cached relocation if
            // the address is still what the cache says (it is — the
            // stretch is never reallocated to anyone else because its
            // slot derives from this image's hash).
            self.hits += 1;
            return LoadResult {
                base,
                reused: true,
                cost: REUSE_COST,
            };
        }
        let mut slot = hash32(image.as_bytes()) as u64;
        let base = loop {
            let candidate = slot << 32;
            match self.aspace.alloc_stretch(len, Some(candidate)) {
                Ok(_) => break candidate,
                Err(_) => slot = slot.wrapping_add(1),
            }
        };
        self.cache.insert(image.to_string(), base);
        self.misses += 1;
        LoadResult {
            base,
            reused: false,
            cost: RELOC_COST,
        }
    }
}

/// Lines in the DECstation 5000's virtually-addressed cache: 64 KiB of
/// 16-byte lines.
const CACHE_LINES: u64 = 4096;

/// Cost to flush or invalidate one cache line: 20 ns.
const PER_LINE_FLUSH: Ns = 20;

/// Switch cost in the single address space: no aliases, no flush, only
/// the fixed 3 µs of swapping protection context that both designs pay.
pub const SINGLE_AS_SWITCH: Ns = 3_000;

/// Switch cost with per-process spaces on the DECstation: the virtual
/// cache must be flushed because the same virtual address aliases
/// different data.
pub fn aliased_switch(dirty_fraction: f64) -> Ns {
    let flush = (CACHE_LINES as f64 * dirty_fraction) as u64 * PER_LINE_FLUSH;
    SINGLE_AS_SWITCH + flush
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults() {
        let aspace = AddressSpace::new();
        assert_eq!(
            aspace.check(PdId(0), 0x1234, Access::Read),
            Err(Fault::Unmapped(0x1234))
        );
    }

    #[test]
    fn rights_checked_per_domain() {
        let mut aspace = AddressSpace::new();
        let s = aspace.alloc_stretch(0x1000, Some(0x10_0000)).unwrap();
        aspace.grant(s, PdId(1), Rights::RW);
        aspace.grant(s, PdId(2), Rights::RO);
        assert!(aspace.check(PdId(1), 0x10_0000, Access::Write).is_ok());
        assert!(aspace.check(PdId(2), 0x10_0000, Access::Read).is_ok());
        assert_eq!(
            aspace.check(PdId(2), 0x10_0000, Access::Write),
            Err(Fault::Protection(0x10_0000, Access::Write))
        );
        // A domain with no grant at all sees nothing.
        assert!(aspace.check(PdId(3), 0x10_0000, Access::Read).is_err());
    }

    #[test]
    fn same_address_means_same_object_for_everyone() {
        // The defining single-address-space property: one address, one
        // object; only the rights differ per domain.
        let mut aspace = AddressSpace::new();
        let lib = aspace.alloc_stretch(0x8000, None).unwrap();
        for pd in 1..=5 {
            aspace.grant(lib, PdId(pd), Rights::RX);
        }
        let base = aspace.stretch_base(lib);
        for pd in 1..=5 {
            assert!(aspace.check(PdId(pd), base + 0x10, Access::Execute).is_ok());
        }
    }

    #[test]
    fn bounds_checked() {
        let mut aspace = AddressSpace::new();
        let s = aspace.alloc_stretch(0x1000, Some(0x20_0000)).unwrap();
        aspace.grant(s, PdId(1), Rights::RW);
        assert!(aspace.check(PdId(1), 0x20_0FFF, Access::Read).is_ok());
        assert_eq!(
            aspace.check(PdId(1), 0x20_1000, Access::Read),
            Err(Fault::Unmapped(0x20_1000))
        );
    }

    #[test]
    fn overlapping_alloc_refused() {
        let mut aspace = AddressSpace::new();
        aspace.alloc_stretch(0x2000, Some(0x40_0000)).unwrap();
        assert!(aspace.alloc_stretch(0x1000, Some(0x40_1000)).is_err());
        assert!(aspace.alloc_stretch(0x1000, Some(0x3F_F001)).is_err());
        assert!(aspace.alloc_stretch(0x1000, Some(0x40_2000)).is_ok());
    }

    #[test]
    fn anonymous_allocations_do_not_overlap() {
        let mut aspace = AddressSpace::new();
        let a = aspace.alloc_stretch(0x1800, None).unwrap();
        let b = aspace.alloc_stretch(0x1000, None).unwrap();
        let (ab, bb) = (aspace.stretch_base(a), aspace.stretch_base(b));
        assert!(bb >= ab + 0x1800);
    }

    #[test]
    fn loader_places_by_hash_and_reuses() {
        let mut loader = ImageLoader::new();
        let first = loader.load("tv-director", 1 << 20);
        assert!(!first.reused);
        assert_eq!(first.base >> 32, hash32(b"tv-director") as u64);
        assert_eq!(first.base & 0xFFFF_FFFF, 0);
        let again = loader.load("tv-director", 1 << 20);
        assert!(again.reused);
        assert_eq!(again.base, first.base);
        assert!(again.cost < first.cost / 100);
        assert_eq!(loader.hits, 1);
        assert_eq!(loader.misses, 1);
    }

    #[test]
    fn loader_distinct_images_distinct_slots() {
        let mut loader = ImageLoader::new();
        let names: Vec<String> = (0..50).map(|i| format!("image-{i}")).collect();
        let mut bases = std::collections::HashSet::new();
        for n in &names {
            let r = loader.load(n, 4096);
            assert!(bases.insert(r.base), "collision unresolved for {n}");
        }
        assert_eq!(loader.misses, 50);
    }

    #[test]
    fn single_as_switch_cheaper_than_aliased() {
        let aliased = aliased_switch(0.5);
        let single = SINGLE_AS_SWITCH;
        assert_eq!(single, 3_000);
        assert_eq!(aliased, 3_000 + 2048 * 20);
        assert!(aliased > 10 * single);
    }

    #[test]
    fn hash32_is_stable_and_spread() {
        assert_eq!(hash32(b""), 0x811C_9DC5);
        // Known FNV-1a vector.
        assert_eq!(hash32(b"a"), 0xE40C_292C);
        assert_ne!(hash32(b"nemesis"), hash32(b"nemesiS"));
    }

    #[test]
    #[should_panic(expected = "stretch length must be positive")]
    fn zero_length_stretch_rejected() {
        let mut aspace = AddressSpace::new();
        let _ = aspace.alloc_stretch(0, None);
    }
}
