//! The run loop: conservative parallel simulation of one city, and its
//! one-shard case.
//!
//! [`run_sharded`] partitions the spec's fabric into region shards
//! ([`crate::partition::ExecPlan`]), compiles a full replica of the
//! world for each ([`crate::build::compile_for`]), and drives every
//! replica through the same loop (`drive`) in lockstep lookahead
//! epochs:
//!
//! 1. Every shard runs its engine up to (but not into) the epoch
//!    boundary `t + L`, where the lookahead `L` is the minimum over cut
//!    trunks of cell serialization time plus propagation delay. A cell
//!    sent on a cut trunk at or after `t` cannot arrive before `t + L`,
//!    so nothing a peer does during the epoch can affect this shard
//!    before the boundary — the classic conservative-synchronization
//!    argument, with the trunk itself supplying the lookahead.
//! 2. Cells that crossed a cut during the epoch were captured by the
//!    transmit link's export buffer ([`pegasus_atm::link::Link`]
//!    `set_export`) with their exact arrival times. Each shard seals
//!    them to wire bytes and posts them to per-pair mailboxes. A sealed
//!    cell is the only thing that ever crosses a cut.
//! 3. A barrier; then every shard drains its inbox in sender order,
//!    injecting each sealed cell into its own replica of the
//!    transmitting link (delivery lands on the trunk's own scheduling
//!    lane, reproducing the exact per-lane event order the single-shard
//!    run would have used). A second barrier closes the epoch.
//!
//! Only the data plane shards. Epochs also end at every *control mark*
//! — switch deaths and congestion-epoch boundaries (`control_marks` in
//! `build/faults.rs`, walked here and nowhere else) — but a spec that
//! has any runs on one shard ([`ExecPlan::partition`] clamps it, with
//! its reason; `drive` asserts it): death repair walks the one
//! `Network`, the congestion sample reads every window and every
//! switch, and one controller renders one verdict. A control plane
//! consulted once per 10 ms epoch has nothing to gain from a transport
//! that synchronises every few microseconds of lookahead, and measured
//! 8–40× slower for using it (`docs/ARCHITECTURE.md`, "Only the data
//! plane shards").
//!
//! **One shard is the degenerate case of the same loop, not a second
//! one.** No trunk is cut, so the lookahead is unbounded and epochs
//! fall only on control marks and the end of the run. There are no
//! peers (`Peers` is absent), so nothing is sealed, no thread is
//! spawned, no barrier is taken and no lock is touched.
//! [`crate::build::Scenario::run`] is that case, applied to a scenario
//! the caller compiled.
//!
//! Determinism: ownership, lane assignment and the lookahead are pure
//! functions of the spec, arrival times come from the
//! sending link's serialization arithmetic (identical in every mode),
//! and ties at equal timestamps break on compile-time lane ids. The
//! canonical report is therefore byte-identical at any `--shards`; CI
//! diffs it.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Barrier, Mutex};
use std::thread;

use pegasus_atm::cell::{Cell, CELL_SIZE};
use pegasus_atm::link::ExportBuffer;
use pegasus_atm::network::TrunkDir;
use pegasus_sim::time::{Ns, SEC};

use crate::build::{
    assemble, compile_for, control_marks, controller, ControlMark, Scenario, ShardOutcome,
};
use crate::partition::ExecPlan;
use crate::report::{ScenarioReport, ShardSlice};
use crate::spec::ScenarioSpec;

/// A cell in flight between shards: sealed to its 53 wire bytes, tagged
/// with the cut trunk it crossed and the arrival time the sending
/// link's serialization already fixed.
struct SealedCell {
    trunk: u32,
    arrival: Ns,
    bytes: [u8; CELL_SIZE],
}

/// What the shards of one run share. A one-shard run has none.
pub(crate) struct Peers {
    /// `mailboxes[from][to]` carries sealed cells from shard `from`
    /// to shard `to` across one epoch boundary.
    mailboxes: Vec<Vec<Mutex<Vec<SealedCell>>>>,
    barrier: Barrier,
}

impl Peers {
    fn new(k: usize) -> Option<Peers> {
        (k > 1).then(|| Peers {
            mailboxes: (0..k)
                .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            barrier: Barrier::new(k),
        })
    }

    fn wait(&self, rt: &mut ShardSlice) {
        self.barrier.wait();
        rt.barrier_waits += 1;
    }
}

/// Runs `spec` across up to `requested` region shards and reports.
///
/// The effective shard count may be lower (see
/// [`ExecPlan::partition`] for the clamping rules). The report's
/// canonical JSON is byte-identical at every shard count; only its
/// `shards` block differs.
pub fn run_sharded(spec: &ScenarioSpec, requested: usize) -> ScenarioReport {
    let plan = ExecPlan::partition(spec, requested);
    let peers = Peers::new(plan.shards);
    let peers = peers.as_ref();
    let shard = |i: usize| drive(compile_for(spec, plan.shard_plan(i)), peers);
    let outcomes = thread::scope(|s| {
        let workers: Vec<_> = (1..plan.shards)
            .map(|i| s.spawn(move || shard(i)))
            .collect();
        // The coordinator (shard 0) runs on this thread.
        let mut outs = vec![shard(0)];
        outs.extend(
            workers
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked")),
        );
        outs
    });
    assemble(spec, outcomes)
}

/// One shard's wiring to its peers: where its cut-crossing cells leave
/// from, and the trunk table sealed cells are addressed by.
struct Cut<'a> {
    peers: &'a Peers,
    me: usize,
    trunks: Vec<TrunkDir>,
    /// `(trunk, export buffer, receiving shard)` per outbound cut trunk.
    outbound: Vec<(usize, ExportBuffer, usize)>,
    /// Reusable drain buffer: swap a mailbox's contents out under the
    /// lock, process outside it. `clear` + `append` retains both
    /// vectors' capacities, so the steady-state loop allocates nothing.
    drain_buf: Vec<SealedCell>,
}

impl<'a> Cut<'a> {
    /// Redirects the transmit side of every outbound cut trunk into an
    /// export buffer: cells this shard sends to a peer's switch are
    /// captured with their arrival times instead of delivered locally.
    /// Buffers are pre-sized so the steady-state loop never grows them.
    fn new(sc: &mut Scenario, peers: &'a Peers) -> Cut<'a> {
        let plan = sc.plan().clone();
        let me = plan.shard;
        let trunks: Vec<TrunkDir> = sc.sys.net.trunks().to_vec();
        let mut outbound = Vec::new();
        for (ti, t) in trunks.iter().enumerate() {
            if plan.owner_of(t.from) == me && plan.owner_of(t.to) != me {
                let buf: ExportBuffer = Rc::new(RefCell::new(Vec::with_capacity(256)));
                sc.sys
                    .net
                    .with_switch_output(t.from, t.port, |l| l.set_export(buf.clone()));
                outbound.push((ti, buf, plan.owner_of(t.to)));
            }
        }
        Cut {
            peers,
            me,
            trunks,
            outbound,
            drain_buf: Vec::new(),
        }
    }

    /// Closes an epoch: seal and post this shard's cut crossings, then
    /// accept the peers'.
    fn cross_epoch(&mut self, sc: &mut Scenario, rt: &mut ShardSlice) {
        let me = self.me;
        // Publish. Trunk order, and send order within a trunk, are
        // deterministic.
        for (ti, buf, dest) in &self.outbound {
            let mut cells = buf.borrow_mut();
            if cells.is_empty() {
                continue;
            }
            let mut mb = self.peers.mailboxes[me][*dest]
                .lock()
                .expect("mailbox lock");
            for (arrival, cell) in cells.drain(..) {
                rt.cells_exported += 1;
                mb.push(SealedCell {
                    trunk: *ti as u32,
                    arrival,
                    bytes: cell.to_bytes(),
                });
            }
        }
        self.peers.wait(rt);

        // Drain: accept peers' cells in sender order, injecting each
        // into this shard's replica of the transmitting link — delivery
        // lands on the trunk's own lane, so per-lane order matches the
        // single-shard schedule exactly.
        for (sender, from_sender) in self.peers.mailboxes.iter().enumerate() {
            if sender == me {
                continue;
            }
            {
                let mut mb = from_sender[me].lock().expect("mailbox lock");
                self.drain_buf.clear();
                self.drain_buf.append(&mut mb);
            }
            for sealed in self.drain_buf.drain(..) {
                rt.cells_imported += 1;
                let cell = Cell::from_bytes(&sealed.bytes).expect("sealed cell round-trips");
                let tr = &self.trunks[sealed.trunk as usize];
                let sim = &mut sc.sim;
                sc.sys
                    .net
                    .with_switch_output(tr.from, tr.port, |l| l.inject(sim, sealed.arrival, cell));
            }
        }
        // Close the epoch only once every shard has drained: a fast
        // peer must not start publishing the next epoch's cells into a
        // mailbox that is still being read.
        self.peers.wait(rt);
    }
}

/// Drives one compiled replica through the epoch loop to the end of
/// the run and folds what it measured. `peers` is `None` exactly when
/// the scenario was compiled as the only shard.
pub(crate) fn drive(mut sc: Scenario, peers: Option<&Peers>) -> ShardOutcome {
    let plan = sc.plan().clone();
    let mut cut = peers.map(|p| Cut::new(&mut sc, p));

    // Conservative lookahead: the global minimum over *all* cut trunks
    // (every shard computes the same value), never the local outbound
    // set — shards must agree on the epoch boundaries. With nothing
    // cut there is no bound: epochs end only at marks and `end`.
    let lookahead: Option<Ns> = sc
        .sys
        .net
        .trunks()
        .iter()
        .filter(|t| plan.owner_of(t.from) != plan.owner_of(t.to))
        .map(|t| ((CELL_SIZE as u64 * 8 * SEC / t.rate_bps) + t.prop_delay).max(1))
        .min();

    // The control-plane timeline. Only a one-shard run has one: what
    // happens at a mark reads and writes the whole city.
    let mut marks = control_marks(sc.spec()).into_iter().peekable();
    assert!(
        peers.is_none() || marks.peek().is_none(),
        "a spec with control marks runs on one shard"
    );
    let mut controller = controller();
    let mut vcs_rerouted = 0u64;
    let mut vcs_stranded = 0u64;
    let mut admitted_dropped = (0u64, 0u64); // (overflow, outage)
    let mut settle = |sc: &Scenario| {
        let (overflow, outage) = sc.settle_drops();
        admitted_dropped.0 += overflow;
        admitted_dropped.1 += outage;
    };

    let end = sc.end_time();
    let mut rt = ShardSlice {
        lookahead_ns: lookahead.unwrap_or(0),
        cut_trunks: cut.as_ref().map_or(0, |c| c.outbound.len() as u64),
        ..ShardSlice::default()
    };
    let mut t: Ns = 0;
    while t < end {
        let next_mark = marks.peek().map_or(end, |&(at, _)| at);
        let next = lookahead.map_or(end, |l| t + l).min(end).min(next_mark);
        // Run this epoch: strictly before the boundary, then park the
        // clock exactly on it so injected arrivals can never precede it.
        sc.sim.run_before(next);
        if let Some(cut) = &mut cut {
            cut.cross_epoch(&mut sc, &mut rt);
        }

        // Control marks at this boundary, deaths before a same-time
        // epoch sample. Events parked exactly on the mark run first.
        while let Some((_, mark)) = marks.next_if(|&(at, _)| at == next) {
            sc.sim.run_until(next);
            match mark {
                ControlMark::Death(switch) => {
                    let (r, s) = sc.apply_death(switch);
                    vcs_rerouted += r;
                    vcs_stranded += s;
                }
                ControlMark::Epoch => {
                    // Sample the epoch's congestion evidence, settle
                    // dropped cells' credits so producers never wedge
                    // on cells that will never arrive, and act on the
                    // controller's verdict.
                    let signal = sc.sample_epoch_signal();
                    settle(&sc);
                    let verdict = controller.observe(&signal);
                    sc.apply_verdict(verdict, next);
                }
            }
        }
        t = next;
    }
    // The final boundary equals `end`: one last pass executes any
    // event parked exactly on it (injected arrivals included).
    sc.sim.run_until(end);

    // Settle drops from the drain window (and, with the monitor off,
    // the whole run) so attribution covers every dropped cell.
    settle(&sc);

    sc.collect(vcs_rerouted, vcs_stranded, admitted_dropped, rt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    /// The tentpole's determinism bar, in-crate: the canonical report
    /// of a small preset is byte-identical at 1, 2 and 4 shards, and
    /// the per-shard event counts sum to the 1-shard total.
    #[test]
    fn preset_is_shard_count_invariant() {
        // videophone-wall: four fabric switches, so four real shards.
        let spec = presets::by_name("videophone-wall").expect("preset");
        let base = run_sharded(&spec, 1);
        let two = run_sharded(&spec, 2);
        let four = run_sharded(&spec, 4);
        assert_eq!(base.to_json_canonical(), two.to_json_canonical());
        assert_eq!(base.to_json_canonical(), four.to_json_canonical());
        assert_eq!(two.shards.len(), 2);
        assert_eq!(four.shards.len(), 4);
        for r in [&two, &four] {
            let sum: u64 = r.shards.iter().map(|s| s.events).sum();
            assert_eq!(sum, base.events_executed, "event count is invariant");
            assert!(r.shards.iter().all(|s| s.barrier_waits > 0));
            assert!(r.shards.iter().all(|s| s.lookahead_ns > 0));
            let exported: u64 = r.shards.iter().map(|s| s.cells_exported).sum();
            let imported: u64 = r.shards.iter().map(|s| s.cells_imported).sum();
            assert_eq!(exported, imported, "no cell lost between shards");
            assert!(exported > 0, "a mesh city must cross the cut");
        }
    }

    /// The control plane does not shard: a sustained-overload preset —
    /// live backpressure, congestion epochs, renegotiation and a
    /// best-effort blast — asked for four shards runs the one-shard
    /// loop, and lands on the golden's bytes.
    #[test]
    fn control_plane_preset_clamps_to_one_shard() {
        let spec = presets::by_name("sustained-3x").expect("preset");
        let four = run_sharded(&spec, 4);
        let [slice] = four.shards.as_slice() else {
            panic!("a clamped run reports one slice, got {}", four.shards.len());
        };
        assert_eq!(slice.barrier_waits, 0);
        assert_eq!(
            four.to_json_canonical(),
            include_str!("../tests/golden/sustained-3x.json")
        );
    }

    /// One shard is the same loop with no peers: a marks-bearing
    /// preset (live congestion epochs) takes no barrier, seals
    /// nothing and reports no lookahead.
    #[test]
    fn one_shard_is_the_loop_without_peers() {
        let spec = presets::by_name("sustained-3x").expect("preset");
        assert!(!control_marks(&spec).is_empty(), "preset has control marks");
        let one = run_sharded(&spec, 1);
        let [slice] = one.shards.as_slice() else {
            panic!("one shard reports one slice, got {}", one.shards.len());
        };
        assert_eq!(slice.barrier_waits, 0);
        assert_eq!(slice.cells_exported, 0);
        assert_eq!(slice.lookahead_ns, 0);
    }

    /// `Scenario::run` only ever runs the engine forward, so a caller
    /// that already drove the public `sim` to `end_time()` (the
    /// benchmark's traced path does, to time the engine on its own)
    /// gets the same report as a fresh run.
    #[test]
    fn run_after_the_caller_drove_the_engine_matches_a_fresh_run() {
        let spec = presets::by_name("smoke").expect("preset");
        let mut sc = crate::build::compile(&spec);
        let end = sc.end_time();
        sc.sim.run_until(end);
        assert_eq!(
            sc.run().to_json_canonical(),
            crate::build::run(&spec).to_json_canonical()
        );
    }
}
