//! E6 — The QoS manager updates weights "on a longer time scale ... to
//! smooth out short-term variations in load" (§3.3).

use pegasus_nemesis::qosmgr::QosManager;
use crate::{Claim, Result};

pub fn claim() -> Result<Claim> {
    let mut mgr = QosManager::new(0.9, 0.3);
    let video = mgr.add_app(2.0);
    let batch = mgr.add_app(1.0);
    let mut rows = vec!["epoch  video_demand  video_grant  batch_grant  event".to_string()];
    let (mut v, mut b) = (Vec::new(), Vec::new());
    let mut audio = None;
    for epoch in 0..30 {
        // Video demand steps up at epoch 10; an audio app joins at 20.
        let vd = if epoch < 10 { 0.3 } else { 0.7 };
        mgr.observe(video, vd);
        mgr.observe(batch, 1.0);
        let mut event = "";
        if epoch == 20 {
            audio = Some(mgr.add_app(3.0));
            event = "audio app joins (weight 3)";
        }
        if let Some(a) = audio {
            mgr.observe(a, 0.2);
        }
        mgr.rebalance();
        let a_grant = audio.map(|a| format!("audio={:.3}  ", mgr.granted(a)));
        let a_grant = a_grant.unwrap_or_default();
        v.push(mgr.granted(video));
        b.push(mgr.granted(batch));
        rows.push(format!(
            "{epoch:>5}  {vd:>12.2}  {:>11.3}  {:>11.3}  {a_grant}{event}",
            v[epoch], b[epoch]
        ));
    }
    let rising = |s: &[f64]| s.windows(2).all(|w| w[1] >= w[0]);
    let falling = |s: &[f64]| s.windows(2).all(|w| w[1] <= w[0]);
    Ok(Claim {
        id: "E6",
        title: "QoS-manager share adaptation over epochs",
        anchor: "§3.3 'Quality-of-Service-manager domain ... updates the scheduler weights'",
        expected_shape: "video grant ramps smoothly after the step (rising, unsettled 3 epochs \
            on), batch yields; audio's arrival squeezes batch again",
        rows,
        measured: format!(
            "video {:.3} → {:.3} (epoch 12: {:.3}); batch {:.3} → {:.3}, {:.3} after audio",
            v[9], v[19], v[12], b[9], b[19], b[29]
        ),
        holds: rising(&v[9..20])
            && v[12] < v[19]
            && falling(&b[9..20])
            && falling(&b[19..30])
            && b[20] < b[19],
    })
}
