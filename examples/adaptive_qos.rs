//! Adaptive QoS: the manager re-weights shares while the scheduler runs.
//!
//! The QoS manager observes per-epoch demand, smooths it, water-fills
//! capacity by user weight (§3.3), and the resulting shares drive the
//! EDF+shares scheduler. Crucially, per the paper, "applications will
//! not always get what they want; they will have to adapt to the
//! resources they are given" — so each application scales its per-period
//! work to its grant (a cheaper algorithm, a smaller picture), and the
//! *delivered quality* (grant ÷ demand) is the interesting output.
//!
//! Run with: `cargo run --example adaptive_qos`

use pegasus_system::nemesis::qosmgr::QosManager;
use pegasus_system::nemesis::sched::{CpuSim, Policy, TaskSpec};
use pegasus_system::sim::time::MS;

fn main() {
    let mut mgr = QosManager::new(0.9, 0.4);
    let video = mgr.add_app(2.0);
    let batch = mgr.add_app(1.0);
    let mut audio = None;

    println!("epoch  video_grant  batch_grant  audio_grant  video_quality  misses(v,a)");
    for epoch in 0..24u32 {
        // Demand: video steps from 30% to 60% at epoch 8; batch always
        // wants everything; audio (20% + margin) arrives at epoch 16.
        let video_demand = if epoch < 8 { 0.30 } else { 0.60 };
        mgr.observe(video, video_demand);
        mgr.observe(batch, 1.0);
        if epoch == 16 && audio.is_none() {
            audio = Some(mgr.add_app(4.0));
        }
        if let Some(a) = audio {
            mgr.observe(a, 0.20);
        }
        mgr.rebalance();

        // Run one 2-second epoch under the granted shares. Each
        // application *adapts*: its per-period work is whatever its
        // grant affords (never more than its demand).
        let period = 10 * MS;
        let mut sim = CpuSim::new(Policy::NemesisEdf);
        let v_share = mgr.share_for(video, period);
        let v_work = v_share.slice.min((period as f64 * video_demand) as u64);
        sim.add_task(TaskSpec {
            name: "video".into(),
            share: v_share,
            priority: 2,
            period,
            work: v_work,
            use_slack: false,
            phase: 0,
        });
        let b_share = mgr.share_for(batch, period);
        sim.add_task(TaskSpec {
            name: "batch".into(),
            share: b_share,
            priority: 1,
            period,
            work: period, // wants the whole CPU; lives off slack too
            use_slack: true,
            phase: 0,
        });
        let mut audio_idx = None;
        if let Some(a) = audio {
            let a_share = mgr.share_for(a, period);
            audio_idx = Some(sim.add_task(TaskSpec {
                name: "audio".into(),
                share: a_share,
                priority: 3,
                period,
                work: a_share.slice.min(period / 5),
                use_slack: false,
                phase: 0,
            }));
        }
        let result = sim.run(2_000 * MS);
        let audio_grant = audio.map(|a| mgr.granted(a)).unwrap_or(0.0);
        let audio_miss = audio_idx
            .map(|i| format!("{:.1}%", result.tasks[i].miss_rate() * 100.0))
            .unwrap_or_else(|| "-".into());
        let quality = (mgr.granted(video) / video_demand).min(1.0);
        println!(
            "{epoch:>5}  {:>11.3}  {:>11.3}  {:>11.3}  {:>12.0}%  ({:.1}%, {})",
            mgr.granted(video),
            mgr.granted(batch),
            audio_grant,
            quality * 100.0,
            result.tasks[0].miss_rate() * 100.0,
            audio_miss,
        );
    }
    println!("\nvideo's grant follows its demand step with EWMA smoothing; audio's arrival");
    println!("reclaims capacity from batch; adapted applications never miss — they degrade");
    println!("gracefully instead, exactly the contract §3.3 describes.");
}
