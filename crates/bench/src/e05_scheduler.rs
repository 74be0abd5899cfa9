//! E5 — Nemesis EDF over (slice, period) shares against round-robin and
//! priority baselines (§3.3).

use pegasus_nemesis::sched::{CpuSim, Policy, TaskSpec};
use pegasus_sim::time::MS;
use crate::{Claim, Result};

/// `(miss rate, CPU ms received)` of the audio and the video task
/// beside `hogs` greedy best-effort tasks.
fn run(policy: Policy, hogs: usize) -> [(f64, u64); 2] {
    let mut sim = CpuSim::new(policy);
    sim.ctx_cost = 10_000;
    sim.add_task(TaskSpec::guaranteed("audio", 10 * MS, 3 * MS).with_priority(5));
    sim.add_task(TaskSpec::guaranteed("video", 40 * MS, 16 * MS).with_priority(4));
    for i in 0..hogs {
        sim.add_task(TaskSpec::best_effort(&format!("hog{i}"), 10 * MS, 100 * MS).with_priority(6));
    }
    let r = sim.run(10_000 * MS);
    [0, 1].map(|i| (r.tasks[i].miss_rate(), r.tasks[i].cpu_received / MS))
}

pub fn claim() -> Result<Claim> {
    let mut rows = vec![
        "workload: audio 3ms/10ms + video 16ms/40ms guaranteed, N greedy best-effort hogs (high \
         priority!)"
            .to_string(),
    ];
    let (mut edf_worst, mut degraded) = (0.0f64, Vec::new());
    for hogs in [0usize, 1, 3] {
        for (pname, policy) in [
            ("nemesis-edf", Policy::NemesisEdf),
            ("round-robin", Policy::RoundRobin(MS)),
            ("static-prio", Policy::StaticPriority),
            ("pure-edf", Policy::PureEdf),
        ] {
            let [audio, video] = run(policy, hogs);
            rows.push(format!(
                "hogs={hogs}  policy={pname}  audio miss={:.1}%  video miss={:.1}%  audio cpu(ms)={}",
                audio.0 * 100.0,
                video.0 * 100.0,
                audio.1
            ));
            let worst = audio.0.max(video.0);
            if pname == "nemesis-edf" {
                edf_worst = edf_worst.max(worst);
            } else if worst > 0.0 && !degraded.contains(&pname) {
                degraded.push(pname);
            }
        }
    }
    Ok(Claim {
        id: "E5",
        title: "deadline misses under load: EDF+shares vs round-robin vs priority",
        anchor: "§3.3 'weighted scheduling discipline ... earliest deadline first'",
        expected_shape: "nemesis-edf rows stay at 0% for audio+video regardless of hogs; the \
            others degrade",
        rows,
        measured: format!(
            "nemesis-edf worst miss {:.1}%; degraded under hogs: {}",
            edf_worst * 100.0,
            degraded.join(", ")
        ),
        holds: edf_worst == 0.0 && degraded.len() == 3,
    })
}
