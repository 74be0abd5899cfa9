//! Property tests: the tiered content cache's sharing economy.
//!
//! The §5 flash-crowd claim is a conservation law: a resident chunk is
//! views of the log store's own disk pages, so serving it to any number
//! of additional viewers hands out views of the *same* buffers. The
//! number of distinct buffers handed out depends only on which chunks
//! were touched, never on how many viewers touched them, and the
//! cache's arena grants no fresh allocation to either.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs, SEGMENT_BYTES};
use pegasus_pfs::tier::{TierConfig, TieredCache};

/// One chunk is one 64 KiB disk page.
const CHUNK: u64 = 1 << 16;

/// `titles` one-segment titles on disks that keep their bytes.
fn fs_with_titles(titles: usize) -> (LogFs, Vec<FileId>) {
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    let mut files = Vec::with_capacity(titles);
    for t in 0..titles {
        let id = fs.create(FileClass::Continuous);
        fs.append(id, &vec![t as u8 + 1; SEGMENT_BYTES]).unwrap();
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
/// `viewers` concurrent readers who must all get views of one buffer,
/// and returns the cache arena's fresh allocations and the distinct
/// buffers handed out (every view is held to the end, so no buffer's
/// address is reused while counted).
fn run(accesses: &[(usize, u64)], viewers: usize) -> Result<(u64, usize), TestCaseError> {
    let (mut fs, files) = fs_with_titles(3);
    let mut cache = cache();
    let mut held = Vec::new();
    for &(title, chunk) in accesses {
        let file = files[title % files.len()];
        let mut first = Vec::new();
        cache
            .read(&mut fs, file, chunk * CHUNK, CHUNK, &mut first)
            .unwrap();
        for _ in 1..viewers {
            let mut out = Vec::new();
            cache
                .read(&mut fs, file, chunk * CHUNK, CHUNK, &mut out)
                .unwrap();
            prop_assert_eq!(out.len(), first.len());
            prop_assert!(out.iter().zip(&first).all(|(v, f)| v.same_buffer(f)));
            held.extend(out);
        }
        held.extend(first);
    }
    let buffers: BTreeSet<*const u8> = held.iter().map(|v| v.buf().as_ptr()).collect();
    Ok((cache.arena().stats().fresh_allocs, buffers.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fresh_allocs_independent_of_viewer_count(
        accesses in proptest::collection::vec((0usize..3, 0u64..16), 1..24),
        viewers in 2usize..12,
    ) {
        // Two identical access sequences, one viewer vs. N viewers per
        // access. Same chunks touched in the same order → the same
        // buffers handed out, one page per chunk; the extra viewers
        // surface only as more handles on them.
        let (solo_fresh, solo_buffers) = run(&accesses, 1)?;
        let (crowd_fresh, crowd_buffers) = run(&accesses, viewers)?;
        prop_assert_eq!((solo_fresh, crowd_fresh), (0, 0), "the cache copied a chunk");
        prop_assert_eq!(
            crowd_buffers, solo_buffers,
            "viewer fan-out changed the buffers handed out"
        );
        let chunks: BTreeSet<_> = accesses.iter().collect();
        prop_assert_eq!(solo_buffers, chunks.len());
    }
}
