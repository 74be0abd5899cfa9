//! The array's range read against its whole-stripe read: the same
//! bytes, the same duration, and every member disk left exactly where a
//! whole-stripe read leaves it — healthy, with each of the five disks
//! failed in turn, and over stripes written while a disk was down.

use proptest::prelude::*;

use pegasus_pfs::disk::{Discard, DiskConfig, DiskError, PAGE_BYTES};
use pegasus_pfs::raid::{RaidArray, RaidError, DATA_DISKS};
use pegasus_sim::arena::Arena;

/// Two 64 KiB pages a chunk, so a range can straddle both a chunk and
/// a page of the disks' store.
const STRIPE: usize = 512 << 10;
const STRIPES: u64 = 3;

fn pattern(stripe: u64) -> Vec<u8> {
    (0..STRIPE)
        .map(|i| ((i as u64 * 7 + stripe * 13) % 251) as u8)
        .collect()
}

/// An array holding [`STRIPES`] stripes, with `failed` down — since
/// before the writes when `degraded_write`, since after them otherwise.
fn array(stripes: &[Vec<u8>], failed: Option<usize>, degraded_write: bool) -> RaidArray {
    let mut r = RaidArray::new(DiskConfig::hp_1994(), STRIPE);
    let fail = |r: &mut RaidArray| failed.into_iter().for_each(|f| r.disk_mut(f).fail());
    if degraded_write {
        fail(&mut r);
    }
    for (s, bytes) in stripes.iter().enumerate() {
        let pages: Vec<_> = bytes
            .chunks(PAGE_BYTES)
            .map(|p| r.arena().frame_from(p))
            .collect();
        r.write_pages(s as u64, &pages).unwrap();
    }
    fail(&mut r);
    r
}

/// Every member disk's counters.
fn stats(r: &mut RaidArray) -> Vec<String> {
    (0..=DATA_DISKS)
        .map(|i| format!("{:?}", r.disk_mut(i).stats))
        .collect()
}

/// What can be seen of every member disk: its counters, and (through
/// the cost of moving the head back to sector 0) where its head is.
fn disks(r: &mut RaidArray) -> (Vec<String>, Vec<Result<u64, DiskError>>) {
    let stats = stats(r);
    let heads = (0..=DATA_DISKS)
        .map(|i| r.disk_mut(i).read_views(0, 0, 0, 0, &mut Discard))
        .collect();
    (stats, heads)
}

/// Reads each `(stripe, off, len)` both ways under every failure the
/// array survives and holds the range read to the whole-stripe one. The
/// two arrays of a pair are charged alike at every step, so one pair
/// serves all the ranges.
fn check_ranges(ranges: &[(u64, usize, usize)]) {
    let stripes: Vec<Vec<u8>> = (0..STRIPES).map(pattern).collect();
    let downs = (0..=DATA_DISKS).flat_map(|f| [(Some(f), false), (Some(f), true)]);
    for (failed, degraded_write) in downs.chain([(None, false)]) {
        let mut whole = array(&stripes, failed, degraded_write);
        let mut ranged = array(&stripes, failed, degraded_write);
        for &(stripe, off, len) in ranges {
            let what =
                format!("stripe {stripe} [{off}, +{len}) failed {failed:?}/{degraded_write}");
            let (bytes, t_whole) = whole.read_stripe(stripe).unwrap();
            assert!(bytes == stripes[stripe as usize], "{what}");

            let mut views = vec![Arena::new().frame_from(&[0xEE; 3]).view_all()];
            let t = ranged.read_views(stripe, off, len, &mut views).unwrap();
            let out: Vec<u8> = views.iter().flat_map(|v| v.iter().copied()).collect();
            assert_eq!(out[..3], [0xEE; 3], "{what}: a range read appends");
            assert!(out[3..] == bytes[off..off + len], "{what}");
            assert_eq!(t, t_whole, "{what}");
            assert_eq!(disks(&mut ranged), disks(&mut whole), "{what}");
        }
    }
}

#[test]
fn range_read_edges() {
    let chunk = STRIPE / DATA_DISKS;
    check_ranges(&[
        (1, 0, 0),
        (1, STRIPE, 0),
        (1, chunk, 0),
        (1, 0, STRIPE),
        (0, 0, chunk),
        (1, chunk - 1, 2),
        (2, chunk / 2 - 5, 10), // a page boundary inside a chunk
        (1, 100, 3 * chunk),
        (1, 3 * chunk + 17, chunk - 17),
    ]);
    // A range past the stripe, or a stripe past the disks, is the
    // caller's mistake and says so; neither charges anything.
    let mut r = array(&[pattern(0)], None, false);
    let before = stats(&mut r);
    for (stripe, off, len) in [
        (0, STRIPE, 1),
        (0, 1, STRIPE),
        (0, usize::MAX, 2),
        (r.stripes(), 0, 1),
        (u64::MAX / 2, 0, 1),
    ] {
        assert_eq!(
            r.read_views(stripe, off, len, &mut Vec::new()),
            Err(RaidError::Disk(DiskError::OutOfRange)),
            "stripe {stripe} [{off}, +{len})"
        );
    }
    assert_eq!(stats(&mut r), before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn range_read_is_the_whole_read_cut_to_the_range(
        cuts in proptest::collection::vec((0..STRIPES, 0..=STRIPE, 0..=STRIPE), 12),
    ) {
        let ranges: Vec<_> = cuts.iter().map(|&(s, a, b)| (s, a.min(b), a.abs_diff(b))).collect();
        check_ranges(&ranges);
    }

    #[test]
    fn forgetting_keeps_every_other_byte_and_charges_nothing(
        cuts in proptest::collection::vec((0..STRIPES, 0..=STRIPE, 0..=STRIPE), 1..6),
        discard in 0..=STRIPES,
    ) {
        let discard = (discard < STRIPES).then_some(discard); // else none
        // Bytes a forget may have turned to zeros, per stripe.
        let stripes: Vec<Vec<u8>> = (0..STRIPES).map(pattern).collect();
        let mut may_go = vec![vec![false; STRIPE]; STRIPES as usize];
        for &(s, a, b) in &cuts {
            may_go[s as usize][a.min(b)..a.max(b)].fill(true);
        }
        if let Some(s) = discard {
            may_go[s as usize].fill(true);
        }
        // Healthy, then with each member lost after the forgetting: a
        // lost data disk's kept bytes come back through folded parity.
        for failed in [None].into_iter().chain((0..=DATA_DISKS).map(Some)) {
            let mut kept = array(&stripes, None, false);
            // One call per cut, so several calls can fold over the same
            // parity page; and every cut of a stripe in one call, so its
            // parity pages fold each page forgotten over them at once.
            let mut per_cut = array(&stripes, None, false);
            for &(s, a, b) in &cuts {
                per_cut.forget(s, &[(a.min(b), a.abs_diff(b))]);
            }
            let mut batched = array(&stripes, None, false);
            for s in 0..STRIPES {
                let runs: Vec<_> = (cuts.iter().filter(|c| c.0 == s))
                    .map(|&(_, a, b)| (a.min(b), a.abs_diff(b)))
                    .collect();
                batched.forget(s, &runs);
            }
            // Looking moves every head, so each array is looked at once.
            let want = disks(&mut kept);
            for forgot in [&mut per_cut, &mut batched] {
                if let Some(s) = discard {
                    forgot.discard_stripe(s);
                }
                prop_assert!(forgot.retained_bytes() <= kept.retained_bytes());
                prop_assert_eq!(disks(forgot), want.clone());
            }
            for r in [&mut kept, &mut per_cut, &mut batched] {
                failed.into_iter().for_each(|f| r.disk_mut(f).fail());
            }
            for s in 0..STRIPES {
                let (want, t_want) = kept.read_stripe(s).unwrap();
                for (how, forgot) in [("per cut", &mut per_cut), ("batched", &mut batched)] {
                    let (got, t) = forgot.read_stripe(s).unwrap();
                    prop_assert_eq!(t, t_want);
                    let bad = (got.iter().zip(&want).zip(&may_go[s as usize]))
                        .position(|((g, w), &may)| g != w && !(may && *g == 0));
                    prop_assert_eq!(bad, None, "{}: stripe {} with {:?} failed", how, s, failed);
                }
            }
            let want = disks(&mut kept);
            for forgot in [&mut per_cut, &mut batched] {
                prop_assert_eq!(disks(forgot), want.clone());
            }
        }
        // Forgetting the rest as well leaves nothing: each parity page
        // folds to zeros and goes with the last data page over it.
        let mut forgot = array(&stripes, None, false);
        for &(s, a, b) in &cuts {
            forgot.forget(s, &[(a.min(b), a.abs_diff(b))]);
        }
        for s in 0..STRIPES {
            forgot.forget(s, &[(0, STRIPE)]);
        }
        prop_assert_eq!(forgot.retained_bytes(), 0);
    }
}
