//! What an operation holds in memory at its fullest — the sibling of
//! `sigprof.rs`, for bytes instead of time.
//!
//! Runs one operation of a preset or benchmark workload (spec in,
//! canonical JSON out, one shard) — or of `pfs`, the storage loop of
//! `support/pfs_op.rs`, which takes no seed — under a counting global
//! allocator and prints the peak of live heap bytes and, by power-of-two
//! size class, the allocations that were live at that moment. Exact and
//! repeatable at one seed: `scripts/profile.sh <target> --live [seed]`.

#[path = "support/live_alloc.rs"]
mod live_alloc;
#[path = "support/pfs_op.rs"]
mod pfs_op;
#[path = "support/targets.rs"]
mod targets;

use pegasus_scenario::run_sharded;

#[global_allocator]
static ALLOCATOR: live_alloc::LiveAlloc = live_alloc::LiveAlloc;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else {
        eprintln!(
            "usage: livebytes <preset | metro-steady | front-door | control-3x | pfs> [seed]"
        );
        std::process::exit(2);
    };
    let what = if name == "pfs" {
        let data = pfs_op::pfs_data();
        live_alloc::reset();
        std::hint::black_box(pfs_op::pfs_op(&data));
        name
    } else {
        let mut spec = targets::spec_of(&name);
        if let Some(seed) = args.next().and_then(|s| s.parse().ok()) {
            spec = spec.with_seed(seed);
        }
        live_alloc::reset();
        drop(std::hint::black_box(
            run_sharded(&spec, 1).to_json_canonical(),
        ));
        format!("{name} seed {}", spec.seed)
    };
    let (bytes, classes) = live_alloc::peak();
    println!(
        "{what}: peak live {bytes} bytes ({:.1} MB)",
        bytes as f64 / 1e6
    );
    println!("\nlive at the peak, by size class\n  up to B    count         MB");
    for (class, &(count, bytes)) in classes.iter().enumerate() {
        if count > 0 {
            println!(
                "{:9} {count:8} {:10.2}",
                1usize << class,
                bytes as f64 / 1e6
            );
        }
    }
}
