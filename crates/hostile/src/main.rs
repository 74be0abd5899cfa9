//! `fuzz-gauntlet` — the CI-sized driver for the hostile fronts.
//!
//! ```text
//! fuzz-gauntlet [--front wire|disk|control|all]
//!               [--seed N] [--iters N]
//! ```
//!
//! Exit status 0 means every oracle held for every step; any violation
//! panics with its one-line `(seed, front, step)` reproduction triple.
//! `scripts/fuzz_gauntlet.sh` wraps this with the CI budgets.

use pegasus_hostile::{control, disk, wire};

struct Args {
    front: String,
    seed: u64,
    iters: u64,
}

fn parse() -> Args {
    let mut args = Args {
        front: "all".to_string(),
        seed: 1994, // the paper's year; the smoke lane pins it
        iters: 0,   // 0 = per-front default
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--front" => args.front = grab("--front"),
            "--seed" => args.seed = grab("--seed").parse().expect("--seed takes a u64"),
            "--iters" => args.iters = grab("--iters").parse().expect("--iters takes a u64"),
            "--help" | "-h" => {
                println!(
                    "usage: fuzz-gauntlet [--front wire|disk|control|all] \
                     [--seed N] [--iters N]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse();
    let pick = |default: u64| if args.iters == 0 { default } else { args.iters };
    let all = args.front == "all";

    if all || args.front == "wire" {
        // Each step applies 1–3 mutations to a multi-cell stream, so the
        // default budget comfortably clears 10k individual mutations.
        let n = pick(6_000);
        let s = wire::run_wire(args.seed, n);
        println!(
            "wire: {} steps, {} delivered ({} via trusted trailer), {} rejected — ok",
            s.steps, s.delivered, s.trust_accepts, s.rejected
        );
    }
    if all || args.front == "disk" {
        let n = pick(400);
        let s = disk::run_images(args.seed, n);
        println!(
            "disk: {} images, {} rejected, {} survived, {} restored and read back; \
             {} torn regions fell back, {} refused — ok",
            s.steps, s.rejected, s.survived, s.restored, s.fell_back, s.refused
        );
    }
    if all || args.front == "control" {
        let n = pick(300);
        let s = control::run_control(args.seed, n);
        println!(
            "control: {} walks, {} admitted, {} stalls, {} downs, {} ups — ok",
            s.steps, s.admitted, s.stalls, s.downs, s.ups
        );
    }
    println!("fuzz-gauntlet: all fronts held (seed={})", args.seed);
}
