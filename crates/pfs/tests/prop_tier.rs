//! Property tests: the tiered content cache's shared-lease economy.
//!
//! The §5 flash-crowd claim is a conservation law: once a chunk is
//! resident, serving it to any number of additional viewers hands out
//! shared leases on the *same* arena buffer — the number of fresh
//! arena allocations depends only on which chunks were touched, never
//! on how many viewers touched them.

use proptest::prelude::*;

use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs, SEGMENT_BYTES};
use pegasus_pfs::tier::{TierConfig, TieredCache};

const CHUNK: u64 = 1 << 16;

fn fs_with_titles(titles: usize, segments: usize) -> (LogFs, Vec<FileId>) {
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    fs.raid_mut().set_store(false);
    let mut files = Vec::with_capacity(titles);
    for _ in 0..titles {
        let id = fs.create(FileClass::Continuous);
        for _ in 0..segments {
            fs.append(id, &vec![0u8; SEGMENT_BYTES]).unwrap();
        }
        files.push(id);
    }
    fs.sync().unwrap();
    (fs, files)
}

fn cache() -> TieredCache {
    TieredCache::new(TierConfig {
        hot_chunks: 8,
        warm_chunks: 16,
        chunk_bytes: CHUNK as usize,
        warm_chunk_ns: 50_000,
    })
}

/// Replays `accesses` (title, chunk) pairs, each fanned out to
/// `viewers` concurrent readers, and returns the arena ledger.
fn run(fs: &mut LogFs, files: &[FileId], accesses: &[(usize, u64)], viewers: usize) -> (u64, u64) {
    let mut cache = cache();
    let mut out = Vec::new();
    for &(title, chunk) in accesses {
        let file = files[title % files.len()];
        for _ in 0..viewers {
            cache
                .read(fs, file, chunk * CHUNK, CHUNK, &mut out)
                .unwrap();
        }
        out.clear();
    }
    let a = cache.arena().stats();
    (a.fresh_allocs, a.shared_attaches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fresh_allocs_independent_of_viewer_count(
        accesses in proptest::collection::vec((0usize..3, 0u64..16), 1..24),
        viewers in 2usize..12,
    ) {
        // Two identical access sequences, one viewer vs. N viewers per
        // access. Same chunks touched in the same order → the arena
        // grants the same number of fresh buffers; the extra viewers
        // surface only as shared leases.
        let (mut fs_a, files_a) = fs_with_titles(3, 1);
        let (solo_fresh, _) = run(&mut fs_a, &files_a, &accesses, 1);

        let (mut fs_b, files_b) = fs_with_titles(3, 1);
        let (crowd_fresh, crowd_shared) = run(&mut fs_b, &files_b, &accesses, viewers);

        prop_assert_eq!(
            crowd_fresh, solo_fresh,
            "viewer fan-out changed the fresh-allocation count"
        );
        // Every access beyond each chunk's first service is a shared
        // lease: (viewers − 1) per access at minimum, plus repeat
        // accesses the solo run also shares.
        let min_shared = accesses.len() as u64 * (viewers as u64 - 1);
        prop_assert!(
            crowd_shared >= min_shared,
            "expected at least {} shared leases, saw {}",
            min_shared,
            crowd_shared
        );
    }
}
