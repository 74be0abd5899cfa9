//! What the profiling examples run, read from the command line: one of
//! `pegasus_scenario::workloads`, checked, or a preset, unchecked.
//! Shared (by `#[path]`) between `sigprof` and `livebytes`.

use pegasus_scenario::{presets, run, workloads};

/// Reads `<target> [arg]`, or prints the usage and exits 2. Restores
/// the default `SIGPIPE` action first, so that output piped into `head`
/// ends the run instead of panicking.
pub fn args(arg: &str) -> (String, Option<String>) {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: sets SIGPIPE (13) to SIG_DFL (0); no handler is run.
        unsafe { signal(13, 0) };
    }
    let mut args = std::env::args();
    let exe = args.next().unwrap_or_default();
    let (Some(target), value) = (args.next(), args.next()) else {
        let names = workloads::NAMES.join(" | ");
        eprintln!("usage: {exe} <{names} | preset> [{arg}]");
        std::process::exit(2)
    };
    (target, value)
}

/// The operation `name` names at `seed` (a workload's default is 7, a
/// preset's its own), which returns the workload checks it broke, and
/// the name with the seed. A workload's input is made here, before the
/// operation, as the benchmark makes it in set-up.
pub fn op(name: String, seed: Option<u64>) -> (String, Box<dyn FnMut() -> Vec<String>>) {
    if name == "pfs-vcr" {
        let seed = seed.unwrap_or(7);
        let data = workloads::pfs_vcr_data(seed);
        let op = move || match workloads::pfs_vcr(&data, &mut ()) {
            Ok(out) => out.failures,
            Err(e) => vec![format!("pfs-vcr: {e}")],
        };
        return (format!("{name} seed {seed}"), Box::new(op));
    }
    let workload = workloads::spec(&name, seed.unwrap_or(7));
    let checked = workload.is_some();
    let preset = || presets::by_name(&name).map(|p| seed.map_or(p.clone(), |s| p.with_seed(s)));
    let Some(spec) = workload.or_else(preset) else {
        eprintln!("no workload or preset named {name:?}");
        std::process::exit(2)
    };
    let label = format!("{name} seed {}", spec.seed);
    let op = move || {
        let report = run(&spec);
        std::hint::black_box(report.to_json_canonical());
        match checked {
            true => workloads::failures(&name, &spec, &report),
            false => Vec::new(),
        }
    };
    (label, Box::new(op))
}
