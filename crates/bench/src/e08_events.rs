//! E8 — Synchronous signalling for client/server latency, asynchronous
//! for demultiplexing throughput (§3.4).

use std::cell::Cell;
use std::rc::Rc;

use pegasus_nemesis::events::{
    EventSystem, IdcChannel, SignalMode, ACTIVATION, CTX_SWITCH, SCHED_DELAY,
};
use pegasus_sim::time::fmt_ns;
use pegasus_sim::Simulator;
use crate::{Claim, Result};

/// Packets the demultiplexing domain receives, and their spacing.
const PACKETS: u64 = 1_000;
const SPACING: u64 = 10_000;

/// Signals one domain [`PACKETS`] times, [`SPACING`] apart from time 0:
/// `(the first signal's delivery latency, activations in all)`.
fn demux(mode: SignalMode) -> (u64, u64) {
    let sys = EventSystem::shared();
    let mut sim = Simulator::new();
    let rx = sys.borrow_mut().add_domain();
    let chan = sys.borrow_mut().open_channel(rx);
    let first = Rc::new(Cell::new(None));
    let f = first.clone();
    let handler = Box::new(move |sim: &mut Simulator, _: &_, _, _| f.set(f.get().or(Some(sim.now()))));
    sys.borrow_mut().set_handler(rx, handler);
    for i in 0..PACKETS {
        let sys = sys.clone();
        sim.schedule_at(i * SPACING, move |sim| {
            EventSystem::send(&sys, sim, chan, mode);
        });
    }
    sim.run();
    let n = sys.borrow().activations(rx);
    (first.get().unwrap_or_default(), n)
}

/// An IDC round trip with sync events (the paper's low-latency case).
fn idc_round_trip() -> u64 {
    let sys = EventSystem::shared();
    let mut sim = Simulator::new();
    let client = sys.borrow_mut().add_domain();
    let server = sys.borrow_mut().add_domain();
    let t = Rc::new(Cell::new(0));
    let t2 = t.clone();
    let idc = IdcChannel::new(
        &sys,
        client,
        server,
        SignalMode::Synchronous,
        |req| req.to_vec(),
        move |sim, _| t2.set(sim.now()),
    );
    idc.call(&sys, &mut sim, vec![1, 2, 3], SignalMode::Synchronous);
    sim.run();
    t.get()
}

pub fn claim() -> Result<Claim> {
    let [sync, asynch] = [SignalMode::Synchronous, SignalMode::Asynchronous].map(demux);
    let rtt = idc_round_trip();
    let row = |label, (lat, acts): (u64, u64)| {
        format!(
            "mode={label}  single-event latency={}  activations for 1000 packets={acts}",
            fmt_ns(lat)
        )
    };
    // Packets arriving within one scheduling quantum share an activation.
    let batches = PACKETS * SPACING / SCHED_DELAY;
    Ok(Claim {
        id: "E8",
        title: "event signalling: latency (sync wins) and batching (async wins)",
        anchor: "§3.4 'two types of event signalling: synchronous and asynchronous'",
        expected_shape: "sync latency = switch + upcall (~7 µs), async = next quantum (~1 ms); \
            async needs ~1 activation per batch, sync one per event; IDC = two sync signals",
        rows: vec![
            row("synchronous", sync),
            row("asynchronous", asynch),
            format!("idc round trip (sync both ways)={}", fmt_ns(rtt)),
        ],
        measured: format!("(latency ns, activations): sync {sync:?}, async {asynch:?}; idc {rtt} ns"),
        holds: sync.0 == CTX_SWITCH + ACTIVATION
            && asynch.0 == SCHED_DELAY + ACTIVATION
            && sync.1 == PACKETS
            && asynch.1 <= batches + 1
            && rtt == 2 * sync.0,
    })
}
