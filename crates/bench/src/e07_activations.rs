//! E7 — Scheduler activations against transparent resumption: a
//! user-level scheduler that knows when it has the processor (§3.2).

use pegasus_nemesis::threads::{UlThread, UlsPolicy, UlsSim};
use pegasus_nemesis::vp::periodic_quanta;
use pegasus_sim::time::{fmt_ns, MS};
use crate::{Claim, Result};

/// Audio and video miss rates and audio's p99 response under `policy`.
fn run(policy: UlsPolicy) -> (f64, f64, String) {
    let mut sim = UlsSim::new(policy);
    sim.add_thread(UlThread {
        name: "audio".into(),
        period: 10 * MS,
        work: MS,
    });
    sim.add_thread(UlThread {
        name: "video".into(),
        period: 40 * MS,
        work: 12 * MS,
    });
    let horizon = 10_000 * MS;
    let mut stats = sim.run(&periodic_quanta(5 * MS, 10 * MS, horizon), horizon);
    let a99 = stats[0].response.percentile(99.0).map(fmt_ns);
    (
        stats[0].miss_rate(),
        stats[1].miss_rate(),
        a99.unwrap_or_else(|| "-".into()),
    )
}

pub fn claim() -> Result<Claim> {
    let informed = run(UlsPolicy::InformedEdf);
    let transparent = run(UlsPolicy::TransparentResume);
    let row = |label, (audio, video, a99): &(f64, f64, String)| {
        format!(
            "model={label}  audio miss={:.1}%  video miss={:.1}%  audio resp p99={a99}",
            audio * 100.0,
            video * 100.0
        )
    };
    Ok(Claim {
        id: "E7",
        title: "user-level scheduling: informed (activations) vs transparent resume",
        anchor: "§3.2 'more informed decisions about the fate of the threads'",
        expected_shape: "informed EDF misses nothing; transparent resume starves the audio \
            thread behind the long video job",
        rows: vec![
            "domain share: 5 ms per 10 ms; threads: audio 1ms/10ms + video 12ms/40ms".into(),
            row("informed-edf (activations)", &informed),
            row("transparent-resume", &transparent),
        ],
        measured: format!(
            "informed misses {:.1}% / {:.1}%; transparent-resume audio misses {:.1}% (p99 {})",
            informed.0 * 100.0,
            informed.1 * 100.0,
            transparent.0 * 100.0,
            transparent.2
        ),
        holds: informed.0 == 0.0 && informed.1 == 0.0 && transparent.0 > 0.0,
    })
}
