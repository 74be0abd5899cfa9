//! Property tests for the event engine: randomized schedule / cancel /
//! step interleavings checked against a brute-force reference model.
//!
//! The reference keeps every event in a flat vector and fires the
//! minimum `(time, insertion order)` alive entry by linear scan — the
//! obviously-correct O(n²) semantics the slab queue, seq-generation
//! cancellation and lazy heap deletion must reproduce exactly: same fire
//! order, same cancel return values, same executed count, same clock.
//!
//! A second model adds lanes and drives [`Train`]s: there every event,
//! scheduled or pushed, is keyed `(time, lane, per-lane call order)` at
//! its call — what arming each item individually at push time gives —
//! and the engine, which keeps only each train's head in its heap, must
//! fire the same events in the same order.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use proptest::prelude::*;

use pegasus_sim::{EventId, Lane, Simulator, Train};

/// One event in the reference model.
#[derive(Clone, Copy)]
struct ModelEvent {
    time: u64,
    scheduled: bool,
    fired: bool,
}

#[derive(Default)]
struct Model {
    events: Vec<ModelEvent>,
}

impl Model {
    fn schedule(&mut self, time: u64) -> usize {
        self.events.push(ModelEvent {
            time,
            scheduled: true,
            fired: false,
        });
        self.events.len() - 1
    }

    /// Cancels event `i`; returns what `Simulator::cancel` must return.
    fn cancel(&mut self, i: usize) -> bool {
        let e = &mut self.events[i];
        let was_pending = e.scheduled && !e.fired;
        e.scheduled = false;
        was_pending
    }

    /// Index of the next event to fire: minimum (time, insertion order)
    /// among pending entries.
    fn next(&self) -> Option<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.scheduled && !e.fired)
            .min_by_key(|(i, e)| (e.time, *i))
            .map(|(i, _)| i)
    }

    /// Fires the next pending event (if any); returns its index.
    fn step(&mut self) -> Option<usize> {
        let i = self.next()?;
        self.events[i].fired = true;
        Some(i)
    }
}

/// Interprets `(op, arg)` pairs against both implementations and checks
/// every observable along the way. When `handler_cancels` is set, each
/// fired event also cancels a pseudo-randomly chosen earlier event from
/// inside its handler — the reentrant case.
fn check_program(ops: &[(u8, u64)], handler_cancels: bool) -> Result<(), TestCaseError> {
    let mut sim = Simulator::new();
    let mut model = Model::default();
    let mut ids: Vec<EventId> = Vec::new();
    // Shared with handlers: the fire log and the id registry for
    // inside-handler cancellation.
    let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let registry: Rc<RefCell<Vec<EventId>>> = Rc::new(RefCell::new(Vec::new()));
    let mut model_fired: Vec<usize> = Vec::new();
    // Victim choices made by handlers, replayed into the model after the
    // engine (engine is the source of the choice; the model must agree
    // on *effects*, so victims are a pure function of the event index).
    let victim_of = |idx: usize| -> Option<usize> {
        if !handler_cancels || idx == 0 {
            return None;
        }
        Some((idx * 2_654_435_761) % idx)
    };

    let model_step = |model: &mut Model, model_fired: &mut Vec<usize>| -> Option<usize> {
        let i = model.step()?;
        model_fired.push(i);
        if let Some(v) = victim_of(i) {
            model.cancel(v);
        }
        Some(i)
    };

    for &(op, arg) in ops {
        match op % 4 {
            0 => {
                // Schedule a no-op (but logging, possibly cancelling)
                // event a short distance into the future.
                let t = sim.now() + arg % 64;
                let idx = model.schedule(t);
                let fired = fired.clone();
                let reg = registry.clone();
                let victim = victim_of(idx);
                let id = sim.schedule_at(t, move |sim| {
                    fired.borrow_mut().push(idx);
                    if let Some(v) = victim {
                        // Effect must match the model's replay; the return
                        // value is checked against first principles there.
                        let victim_id = reg.borrow()[v];
                        sim.cancel(victim_id);
                    }
                });
                ids.push(id);
                registry.borrow_mut().push(id);
            }
            1 => {
                // Cancel an arbitrary already-issued id (possibly fired,
                // possibly already cancelled).
                if !ids.is_empty() {
                    let i = (arg as usize) % ids.len();
                    let expect = model.cancel(i);
                    let got = sim.cancel(ids[i]);
                    prop_assert_eq!(got, expect, "cancel({}) disagreed", i);
                }
            }
            2 => {
                // Single step.
                let expect = model_step(&mut model, &mut model_fired);
                let stepped = sim.step();
                prop_assert_eq!(stepped, expect.is_some(), "step() emptiness disagreed");
            }
            _ => {
                // Bounded drain.
                let deadline = sim.now() + arg % 128;
                while model
                    .next()
                    .is_some_and(|i| model.events[i].time <= deadline)
                {
                    model_step(&mut model, &mut model_fired);
                }
                sim.run_until(deadline);
            }
        }
        prop_assert_eq!(
            &*fired.borrow(),
            &model_fired,
            "fire order diverged mid-program"
        );
    }

    // Drain both to the end.
    while model_step(&mut model, &mut model_fired).is_some() {}
    sim.run();
    prop_assert_eq!(&*fired.borrow(), &model_fired, "final fire order diverged");
    prop_assert_eq!(sim.events_executed(), model_fired.len() as u64);
    if let (Some(&last), Some(&mlast)) = (fired.borrow().last(), model_fired.last()) {
        prop_assert_eq!(last, mlast);
        prop_assert_eq!(
            sim.now(),
            model.events[mlast].time.max(sim.now()),
            "clock must sit at (or past, via run_until) the last fired event"
        );
    }
    // Every id must now refuse cancellation: fired or cancelled.
    for (i, id) in ids.iter().enumerate() {
        prop_assert!(!sim.cancel(*id), "id {} cancellable after full drain", i);
    }
    Ok(())
}

/// The lanes of the trains under test: two share lane 0 with each other
/// and with plain events, one shares lane 3 with plain events, one is
/// alone on its lane.
const TRAIN_LANES: [Lane; 4] = [0, 0, 3, 5];
/// The lanes plain events are scheduled on.
const PLAIN_LANES: [Lane; 3] = [0, 3, 7];
/// Events a program may issue; bounds the follow-up chains.
const MAX_ISSUED: usize = 600;

/// The reference for programs with trains: a flat vector of events keyed
/// `(time, lane, per-lane call order)`, the minimum live one fires next.
#[derive(Default)]
struct LaneModel {
    /// `(time, lane, lane_seq, live)` by issue index.
    events: Vec<(u64, Lane, u64, bool)>,
    lane_seqs: [u64; 8],
}

impl LaneModel {
    fn issue(&mut self, time: u64, lane: Lane) -> usize {
        let seq = &mut self.lane_seqs[lane as usize];
        self.events.push((time, lane, *seq, true));
        *seq += 1;
        self.events.len() - 1
    }

    /// Retires event `i`; returns whether it was still pending.
    fn retire(&mut self, i: usize) -> bool {
        std::mem::replace(&mut self.events[i].3, false)
    }

    fn next(&self) -> Option<usize> {
        (0..self.events.len())
            .filter(|&i| self.events[i].3)
            .min_by_key(|&i| self.events[i])
    }
}

/// What firing event `idx` does besides logging: push a follow-up item
/// `delay` ahead onto train `k`. A pure function of the index, so the
/// model replays what the engine's handlers did.
fn follow_up(idx: usize) -> Option<(usize, u64)> {
    idx.is_multiple_of(3)
        .then_some((idx % TRAIN_LANES.len(), (idx as u64 * 11) % 40))
}

/// Engine-side state the handlers share.
struct World {
    fired: RefCell<Vec<usize>>,
    issued: Cell<usize>,
    trains: RefCell<Vec<Train<usize>>>,
}

impl World {
    /// Every handler, plain or train: log, then maybe push a follow-up
    /// from inside the engine's dispatch.
    fn on_fire(&self, sim: &mut Simulator, idx: usize) {
        self.fired.borrow_mut().push(idx);
        if let Some((k, delay)) = follow_up(idx) {
            if self.issued.get() < MAX_ISSUED {
                let follow = self.issued.replace(self.issued.get() + 1);
                self.trains.borrow()[k].push(sim, sim.now() + delay, follow);
            }
        }
    }
}

/// Interprets `(op, arg)` pairs against the engine and the lane model.
fn check_train_program(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let mut sim = Simulator::new();
    let mut model = LaneModel::default();
    let world = Rc::new(World {
        fired: RefCell::new(Vec::new()),
        issued: Cell::new(0),
        trains: RefCell::new(Vec::new()),
    });
    for lane in TRAIN_LANES {
        let weak: Weak<World> = Rc::downgrade(&world);
        let train = Train::new(lane, move |sim: &mut Simulator, idx| {
            weak.upgrade()
                .expect("world outlives the run")
                .on_fire(sim, idx)
        });
        world.trains.borrow_mut().push(train);
    }
    // Cancellable (plain) events: `(issue index, id)`.
    let mut ids: Vec<(usize, EventId)> = Vec::new();
    let mut model_fired: Vec<usize> = Vec::new();

    let model_step = |model: &mut LaneModel, model_fired: &mut Vec<usize>| -> Option<usize> {
        let i = model.next()?;
        model.retire(i);
        model_fired.push(i);
        if let Some((k, delay)) = follow_up(i) {
            if model.events.len() < MAX_ISSUED {
                model.issue(model.events[i].0 + delay, TRAIN_LANES[k]);
            }
        }
        Some(i)
    };

    for &(op, arg) in ops {
        match op % 6 {
            0 | 1 if model.events.len() < MAX_ISSUED => {
                let t = sim.now() + (arg / 8) % 48;
                let idx = world.issued.replace(world.issued.get() + 1);
                if op % 6 == 0 {
                    // A plain event on one of the shared lanes.
                    let lane = PLAIN_LANES[arg as usize % PLAIN_LANES.len()];
                    prop_assert_eq!(model.issue(t, lane), idx);
                    let w = world.clone();
                    let id = sim.schedule_at_on(lane, t, move |sim| w.on_fire(sim, idx));
                    ids.push((idx, id));
                } else {
                    // A push, as often behind the train's tail as not.
                    let k = arg as usize % TRAIN_LANES.len();
                    prop_assert_eq!(model.issue(t, TRAIN_LANES[k]), idx);
                    world.trains.borrow()[k].push(&mut sim, t, idx);
                }
            }
            2 => {
                if !ids.is_empty() {
                    let (idx, id) = ids[arg as usize % ids.len()];
                    prop_assert_eq!(sim.cancel(id), model.retire(idx), "cancel({})", idx);
                }
            }
            3 => {
                let expect = model_step(&mut model, &mut model_fired);
                prop_assert_eq!(sim.step(), expect.is_some(), "step() emptiness disagreed");
            }
            4 => {
                let deadline = sim.now() + arg % 96;
                while model.next().is_some_and(|i| model.events[i].0 <= deadline) {
                    model_step(&mut model, &mut model_fired);
                }
                sim.run_until(deadline);
            }
            _ => {
                let deadline = sim.now() + arg % 96;
                while model.next().is_some_and(|i| model.events[i].0 < deadline) {
                    model_step(&mut model, &mut model_fired);
                }
                sim.run_before(deadline);
            }
        }
        prop_assert_eq!(&*world.fired.borrow(), &model_fired, "fire order diverged");
        prop_assert_eq!(
            world.issued.get(),
            model.events.len(),
            "follow-ups diverged"
        );
        let live = model.events.iter().filter(|e| e.3).count();
        prop_assert!(
            live == 0 || sim.pending() > 0,
            "live events but an empty queue"
        );
    }

    while model_step(&mut model, &mut model_fired).is_some() {}
    let clock_floor = sim.now();
    sim.run();
    prop_assert_eq!(
        &*world.fired.borrow(),
        &model_fired,
        "final fire order diverged"
    );
    prop_assert_eq!(sim.events_executed(), model_fired.len() as u64);
    prop_assert_eq!(sim.pending(), 0);
    let last = model_fired.last().map_or(0, |&i| model.events[i].0);
    prop_assert_eq!(sim.now(), last.max(clock_floor), "clock after the drain");
    for train in world.trains.borrow().iter() {
        prop_assert!(train.is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random schedule/cancel/step/run_until interleavings behave exactly
    /// like the brute-force model (cancel-after-fire and double-cancel
    /// both return false, FIFO tie-break by scheduling order, clock
    /// monotonicity).
    #[test]
    fn engine_matches_reference_model(
        ops in proptest::collection::vec((0u8..4, 0u64..256), 1..160)
    ) {
        check_program(&ops, false)?;
    }

    /// The same program shapes, but every fired handler cancels a
    /// pseudo-random earlier event from inside the engine's dispatch
    /// loop — cancellation must stay exact under reentrancy.
    #[test]
    fn engine_matches_reference_model_with_handler_cancels(
        ops in proptest::collection::vec((0u8..4, 0u64..256), 1..160)
    ) {
        check_program(&ops, true)?;
    }

    /// Plain events on several lanes, cancels, and pushes onto four
    /// trains — in and out of time order, a third of them from inside
    /// handlers — fire exactly as if every item had been armed on its
    /// own at push time.
    #[test]
    fn trains_match_arming_every_item_at_push_time(
        ops in proptest::collection::vec((0u8..6, 0u64..4096), 1..200)
    ) {
        check_train_program(&ops)?;
    }
}
