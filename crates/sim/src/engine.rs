//! The discrete-event engine.
//!
//! A [`Simulator`] owns a priority queue of timestamped events. Shared
//! world state lives in `Rc<RefCell<_>>` cells captured by the event
//! actions. Events at equal times fire in a canonical order — by
//! scheduling *lane*, then by per-lane scheduling order (FIFO within a
//! lane) — which makes runs fully deterministic, and deterministic
//! *across execution strategies*: a sharded executor that replays only
//! a subset of each lane's schedule calls still agrees with the
//! single-threaded run on the relative order of every pair of events it
//! executes (see `docs/ARCHITECTURE.md`, "Sharded execution").
//!
//! # Internals
//!
//! The queue is split into two structures tuned for the hot path:
//!
//! * a binary min-heap (`Queue`, private to this file) of small
//!   `(time, key, slot)` entries — 24 bytes each, so sift operations
//!   move triples, not boxed closures. The `key` packs
//!   `(lane << 40) | lane_seq`, so comparing keys compares
//!   `(lane, lane_seq)` lexicographically and equal-time ties break by
//!   lane id, then by within-lane scheduling order. A pop takes the
//!   root and leaves a *hole* there: the next arm — nearly always the
//!   re-arm of the source that just fired — drops into the hole and
//!   sinks, one walk down the heap where pop-then-push makes a full
//!   descent for the displaced last leaf and a climb for the newcomer.
//!   A hole nobody fills is closed with the last leaf when the engine
//!   next looks at the root;
//! * a *slab* of event slots holding the actions. Freed slots go on a
//!   free list and are recycled, so a steady-state simulation stops
//!   allocating slab storage entirely.
//!
//! The heap holds one entry per event *source*, not per event, for the
//! sources that hand their events over in time order: a
//! [`Train`](crate::train::Train) takes each item's key at push time
//! (`Simulator::reserve`) but arms only its head (`arm_reserved`), so a
//! link's queued cells or a play-out buffer's holds sit in the source's
//! own FIFO and the heap stays small.
//!
//! Cancellation is by *key generation*: an [`EventId`] is the
//! `(key, slot)` pair assigned at schedule time. [`Simulator::cancel`]
//! compares the id's key against the slot's current key — a mismatch
//! means the event already fired (or the slot was recycled) — and simply
//! disarms the slot: O(1), no queue surgery. `(lane, lane_seq)` pairs
//! are never reused, so stale ids can never alias a later event. The
//! heap entry becomes a husk that is skipped ("lazy deletion") when it
//! reaches the top.
//!
//! # Lanes
//!
//! Lane 0 is the default: [`Simulator::schedule_at`] and
//! [`Simulator::schedule_shared_at`] put everything there, where
//! equal-time events fire in plain global FIFO order exactly as before.
//! Distinct lanes exist for schedulers whose call *order* is not stable
//! across execution strategies: the sharded scenario executor gives
//! every inter-switch trunk link its own lane, so cells injected at a
//! shard boundary land in the same canonical position the single-
//! threaded run gives them. Within one lane, order is the order of
//! schedule calls on that lane; across lanes at one instant, the lower
//! lane id fires first.
//!
//! Two scheduling flavours share the machinery:
//!
//! * [`Simulator::schedule_at`] / [`Simulator::schedule_at_on`] — the
//!   generic flavour: one boxed `FnOnce` per event (exactly one heap
//!   allocation);
//! * [`Simulator::schedule_shared_at`] — the allocation-free flavour,
//!   on lane 0: a [`SharedHandler`] (`Rc<RefCell<dyn FnMut …>>`)
//!   created once and scheduled any number of times. Returning
//!   `Some(t)` from the handler reschedules the same handler at `t`
//!   without touching the allocator, which is how device clocks (audio
//!   ticks, camera frame loops) run millions of events with zero
//!   per-event allocations.
//!
//! A [`Train`](crate::train::Train) pushes on the lane it was given;
//! every push consumes that lane's next sequence number exactly as a
//! `schedule_*` call at the same program point would. A train is the
//! only way to put a shared handler on a lane other than 0.

use std::cell::RefCell;
use std::rc::Rc;

use crate::time::Ns;

/// A scheduling lane: the major tie-breaker among equal-time events.
///
/// Lane 0 is the general-purpose lane. Other lanes are allocated by
/// schedulers (one per inter-shard trunk link in the sharded executor)
/// that need a schedule order independent of global call interleaving.
pub type Lane = u32;

/// Bits of the packed event key used for the per-lane sequence number.
const SEQ_BITS: u32 = 40;
/// Largest usable lane id (the key packs the lane into the high bits).
pub const MAX_LANE: Lane = ((1u64 << (64 - SEQ_BITS)) - 1) as Lane;

/// Identifier of a scheduled event, usable for cancellation.
///
/// Carries the event's packed `(lane, lane_seq)` key and its slab slot;
/// both are needed so that [`Simulator::cancel`] is O(1) and ids of
/// fired events can never alias a later event that recycled the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    key: u64,
    slot: u32,
}

/// A reusable event action for the allocation-free scheduling lane.
///
/// Cloning the `Rc` is all it costs to schedule one, so a handler built
/// once can carry an unbounded stream of events. When the event fires the
/// handler runs with the simulator clock at the event's time; returning
/// `Some(t)` immediately reschedules the same handler at `t` on lane 0
/// (a fresh sequence number, no allocation), `None` lets it rest.
pub type SharedHandler = Rc<RefCell<dyn FnMut(&mut Simulator) -> Option<Ns>>>;

enum Action {
    /// Generic lane: a one-shot boxed closure.
    Once(Box<dyn FnOnce(&mut Simulator)>),
    /// Allocation-free lane: a shared, rescheduleable handler.
    Shared(SharedHandler),
}

/// One slab slot. `key` identifies the event currently occupying the
/// slot; `action` is `None` while the slot is free (or disarmed by
/// cancellation but not yet recycled).
struct Slot {
    key: u64,
    action: Option<Action>,
}

/// What the heap actually sifts: 24 bytes, no payload.
#[derive(Clone, Copy)]
struct Entry {
    time: Ns,
    key: u64,
    slot: u32,
}

impl Entry {
    /// Whether `self` fires before `other`: `(time, lane, lane_seq)`
    /// order — the key's high bits are the lane, so the `u64` compare is
    /// the lexicographic compare.
    fn before(&self, other: &Entry) -> bool {
        let rank = |e: &Entry| (u128::from(e.time) << 64) | u128::from(e.key);
        rank(self) < rank(other)
    }
}

/// The event queue: a binary min-heap whose pop leaves the root vacant.
///
/// While `hole` is set `heap[0]` is the entry the last [`Queue::pop`]
/// returned — logically gone, physically waiting to be overwritten.
#[derive(Default)]
struct Queue {
    heap: Vec<Entry>,
    hole: bool,
}

impl Queue {
    fn len(&self) -> usize {
        self.heap.len() - usize::from(self.hole)
    }

    fn push(&mut self, entry: Entry) {
        if std::mem::take(&mut self.hole) {
            self.sink_from_root(entry);
        } else {
            self.heap.push(entry);
            self.rise(self.heap.len() - 1);
        }
    }

    /// Closes a hole nobody filled with the last leaf.
    fn settle(&mut self) {
        if std::mem::take(&mut self.hole) {
            let last = self.heap.pop().expect("a hole is an entry");
            if !self.heap.is_empty() {
                self.sink_from_root(last);
            }
        }
    }

    fn peek(&mut self) -> Option<Entry> {
        self.settle();
        self.heap.first().copied()
    }

    /// Takes the root [`Queue::peek`] just returned.
    fn pop_peeked(&mut self) {
        debug_assert!(!self.hole && !self.heap.is_empty(), "peek comes first");
        self.hole = true;
    }

    /// Places `entry` in the vacant root and restores heap order.
    fn sink_from_root(&mut self, entry: Entry) {
        let heap = &mut self.heap[..];
        let n = heap.len();
        let mut pos = 0;
        let mut child = 1;
        while child + 1 < n {
            // Which child is smaller is a coin toss: add the flag, don't
            // branch on it (as a branch it costs the 64-chain probe 40 %).
            child += usize::from(heap[child + 1].before(&heap[child]));
            if !heap[child].before(&entry) {
                heap[pos] = entry;
                return;
            }
            heap[pos] = heap[child];
            pos = child;
            child = 2 * pos + 1;
        }
        if child < n && heap[child].before(&entry) {
            heap[pos] = heap[child];
            pos = child;
        }
        heap[pos] = entry;
    }

    /// Moves the entry at `pos` up to its place.
    fn rise(&mut self, mut pos: usize) {
        let heap = &mut self.heap[..];
        let entry = heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !entry.before(&heap[parent]) {
                break;
            }
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = entry;
    }
}

/// A `(lane, lane_seq)` key taken from its lane's sequence and not yet
/// armed. Move-only: a key names at most one event.
pub(crate) struct Reserved(u64);

impl Reserved {
    /// The packed key; orders events of one instant.
    pub(crate) fn key(&self) -> u64 {
        self.0
    }
}

/// A deterministic discrete-event simulator over virtual nanoseconds.
///
/// # Examples
///
/// ```
/// use pegasus_sim::Simulator;
/// use std::{cell::RefCell, rc::Rc};
///
/// let mut sim = Simulator::new();
/// let hits = Rc::new(RefCell::new(Vec::new()));
/// for t in [30u64, 10, 20] {
///     let hits = hits.clone();
///     sim.schedule_at(t, move |sim| hits.borrow_mut().push(sim.now()));
/// }
/// sim.run();
/// assert_eq!(*hits.borrow(), vec![10, 20, 30]);
/// ```
pub struct Simulator {
    now: Ns,
    /// Next sequence number of each lane, indexed by lane id (grown on
    /// first use; lane 0 always exists).
    lane_seqs: Vec<u64>,
    queue: Queue,
    slots: Vec<Slot>,
    free: Vec<u32>,
    executed: u64,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator at virtual time zero.
    pub fn new() -> Self {
        Simulator {
            now: 0,
            lane_seqs: vec![0],
            queue: Queue::default(),
            slots: Vec::new(),
            free: Vec::new(),
            executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of queue entries still pending: one per armed event
    /// (including cancelled husks), and one per non-empty
    /// [`Train`](crate::train::Train) however many items it holds.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn assert_not_past(&self, time: Ns) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={} target={}",
            self.now,
            time
        );
    }

    /// Takes `lane`'s next sequence number — the program point that
    /// fixes an event's place among its instant-mates.
    pub(crate) fn reserve(&mut self, lane: Lane) -> Reserved {
        assert!(lane <= MAX_LANE, "lane {lane} out of range");
        if self.lane_seqs.len() <= lane as usize {
            self.lane_seqs.resize(lane as usize + 1, 0);
        }
        let seq = self.lane_seqs[lane as usize];
        self.lane_seqs[lane as usize] = seq + 1;
        assert!(seq < 1u64 << SEQ_BITS, "lane {lane} sequence exhausted");
        Reserved(((lane as u64) << SEQ_BITS) | seq)
    }

    fn arm(&mut self, time: Ns, lane: Lane, action: Action) -> EventId {
        self.assert_not_past(time);
        let key = self.reserve(lane).0;
        self.arm_key(time, key, action)
    }

    /// Arms `handler` at `time` under a key reserved earlier: the event
    /// fires where a `schedule_*` call made at the reservation would
    /// have put it. The key stays with the caller, who may cancel the
    /// event and arm it again.
    pub(crate) fn arm_reserved(
        &mut self,
        time: Ns,
        key: &Reserved,
        handler: SharedHandler,
    ) -> EventId {
        self.assert_not_past(time);
        self.arm_key(time, key.0, Action::Shared(handler))
    }

    fn arm_key(&mut self, time: Ns, key: u64, action: Action) -> EventId {
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.key = key;
                sl.action = Some(action);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event slot space exhausted");
                self.slots.push(Slot {
                    key,
                    action: Some(action),
                });
                s
            }
        };
        self.queue.push(Entry { time, key, slot });
        EventId { key, slot }
    }

    /// Schedules `action` to run at absolute virtual time `time` on the
    /// default lane (0).
    ///
    /// Scheduling in the past is a logic error and panics; events for the
    /// current instant are allowed and run after all earlier-scheduled
    /// events of the same instant and lane.
    ///
    /// This is the generic flavour: the closure is boxed (one
    /// allocation). Hot paths that fire repeatedly should build a
    /// [`SharedHandler`] once and use [`Self::schedule_shared_at`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Self::now`].
    pub fn schedule_at<F>(&mut self, time: Ns, action: F) -> EventId
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        self.arm(time, 0, Action::Once(Box::new(action)))
    }

    /// Schedules `action` at `time` on an explicit lane.
    ///
    /// Equal-time ties break by lane id first, then by within-lane
    /// scheduling order, so an event's position among its instant-mates
    /// depends only on its own lane's call history — the property the
    /// sharded executor needs to replay a lane's schedule consistently.
    pub fn schedule_at_on<F>(&mut self, lane: Lane, time: Ns, action: F) -> EventId
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        self.arm(time, lane, Action::Once(Box::new(action)))
    }

    /// Schedules `action` to run `delay` nanoseconds from now.
    pub fn schedule_in<F>(&mut self, delay: Ns, action: F) -> EventId
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        self.schedule_at(self.now.saturating_add(delay), action)
    }

    /// Schedules a [`SharedHandler`] to run at absolute time `time` on
    /// the default lane (0).
    ///
    /// The allocation-free flavour: only the `Rc` is cloned. The same
    /// handler may be scheduled many times (each call is a distinct
    /// event); when it fires it can reschedule itself by returning
    /// `Some(next_time)`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Self::now`].
    pub fn schedule_shared_at(&mut self, time: Ns, handler: SharedHandler) -> EventId {
        self.arm(time, 0, Action::Shared(handler))
    }

    /// Schedules a [`SharedHandler`] to run `delay` nanoseconds from now.
    pub fn schedule_shared_in(&mut self, delay: Ns, handler: SharedHandler) -> EventId {
        self.schedule_shared_at(self.now.saturating_add(delay), handler)
    }

    /// Runs `tick` once immediately; for as long as it returns
    /// `Some(next_time)`, the engine re-invokes it at that time on the
    /// allocation-free lane (one handler allocation for the whole chain).
    ///
    /// This is the canonical shape of a device clock — audio sample
    /// ticks, camera frame loops — where the model advances itself until
    /// it decides to stop.
    pub fn schedule_chain<F>(&mut self, mut tick: F)
    where
        F: FnMut(&mut Simulator) -> Option<Ns> + 'static,
    {
        if let Some(t) = tick(self) {
            let handler: SharedHandler = Rc::new(RefCell::new(tick));
            self.schedule_shared_at(t, handler);
        }
    }

    /// Cancels a pending event. Returns `true` if the event had not yet
    /// fired or been cancelled.
    ///
    /// O(1): the slot is disarmed and recycled immediately; the heap
    /// entry is left behind as a husk and skipped when it surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot) if slot.key == id.key && slot.action.is_some() => {
                slot.action = None;
                self.free.push(id.slot);
                true
            }
            _ => false,
        }
    }

    /// Runs a single event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_within(Ns::MAX)
    }

    /// Runs the next live event if it fires at or before `limit`;
    /// cancelled husks above it are discarded either way.
    fn step_within(&mut self, limit: Ns) -> bool {
        while let Some(entry) = self.queue.peek() {
            let slot = &mut self.slots[entry.slot as usize];
            if slot.key != entry.key || slot.action.is_none() {
                self.queue.pop_peeked(); // cancelled husk, or the slot moved on
                continue;
            }
            if entry.time > limit {
                return false;
            }
            self.queue.pop_peeked();
            let action = slot.action.take().expect("checked above");
            self.free.push(entry.slot);
            debug_assert!(entry.time >= self.now);
            self.now = entry.time;
            self.executed += 1;
            match action {
                Action::Once(f) => f(self),
                Action::Shared(h) => {
                    let next = (h.borrow_mut())(self);
                    if let Some(t) = next {
                        // Only a train's handler fires off lane 0, and
                        // it re-arms itself under a reserved key.
                        self.arm(t, 0, Action::Shared(h));
                    }
                }
            }
            return true;
        }
        false
    }

    /// Runs events until the queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events with timestamps `<= deadline`, then sets the clock to
    /// `deadline` (if it is later than the last event).
    ///
    /// (The pre-slab engine could overshoot the deadline when the queue
    /// top was a cancelled husk timed within it; husks are now discarded
    /// before the deadline check.)
    pub fn run_until(&mut self, deadline: Ns) {
        while self.step_within(deadline) {}
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs events with timestamps *strictly before* `deadline`, then
    /// sets the clock to `deadline`.
    ///
    /// This is the epoch primitive of the sharded executor: a shard runs
    /// everything before the barrier time, parks exactly at the barrier,
    /// absorbs the cells its neighbours sealed during the epoch (all
    /// timestamped at or after the barrier — conservative lookahead
    /// guarantees it), and continues.
    pub fn run_before(&mut self, deadline: Ns) {
        // Times are whole nanoseconds: before `deadline` is at or
        // before the tick preceding it, and nothing is before time 0.
        if let Some(last) = deadline.checked_sub(1) {
            while self.step_within(last) {}
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs at most `n` events.
    pub fn run_steps(&mut self, n: u64) {
        for _ in 0..n {
            if !self.step() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::cell::RefCell;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulator::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (t, tag) in [(50u64, 'c'), (10, 'a'), (30, 'b')] {
            let order = order.clone();
            sim.schedule_at(t, move |_| order.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!['a', 'b', 'c']);
        assert_eq!(sim.now(), 50);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn equal_time_events_fire_fifo() {
        let mut sim = Simulator::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..16 {
            let order = order.clone();
            sim.schedule_at(100, move |_| order.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_more_events() {
        let mut sim = Simulator::new();
        let count = Rc::new(Cell::new(0u32));
        fn tick(sim: &mut Simulator, count: Rc<Cell<u32>>) {
            count.set(count.get() + 1);
            if count.get() < 5 {
                sim.schedule_in(10, move |sim| tick(sim, count));
            }
        }
        let c = count.clone();
        sim.schedule_at(0, move |sim| tick(sim, c));
        sim.run();
        assert_eq!(count.get(), 5);
        assert_eq!(sim.now(), 40);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulator::new();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let id = sim.schedule_at(10, move |_| f.set(true));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel reports false");
        sim.run();
        assert!(!fired.get());
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut sim = Simulator::new();
        let id = sim.schedule_at(10, |_| {});
        sim.run();
        assert!(!sim.cancel(id));
    }

    #[test]
    fn cancel_after_slot_recycled_is_false() {
        let mut sim = Simulator::new();
        let id = sim.schedule_at(10, |_| {});
        assert!(sim.cancel(id));
        // The new event recycles the cancelled event's slot; the stale id
        // must not be able to cancel it.
        let id2 = sim.schedule_at(20, |_| {});
        assert!(!sim.cancel(id), "stale id must not hit the recycled slot");
        assert!(sim.cancel(id2));
        sim.run();
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn cancel_inside_handler_stops_same_instant_event() {
        let mut sim = Simulator::new();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let victim = sim.schedule_at(10, move |_| f.set(true));
        // Scheduled later at the same instant would normally fire second;
        // but the first handler cancels it from inside the engine loop.
        // (This event was scheduled first, so it fires first.)
        let mut sim2 = Simulator::new();
        let fired2 = Rc::new(Cell::new(false));
        let f2 = fired2.clone();
        let assassin_target = Rc::new(Cell::new(None));
        let t2 = assassin_target.clone();
        sim2.schedule_at(10, move |sim| {
            let id: EventId = t2.get().expect("target registered");
            assert!(sim.cancel(id), "victim still pending at cancel time");
        });
        let victim2 = sim2.schedule_at(10, move |_| f2.set(true));
        assassin_target.set(Some(victim2));
        sim2.run();
        assert!(!fired2.get(), "cancelled-from-handler event must not fire");
        assert_eq!(sim2.events_executed(), 1);
        // The original sim still fires its victim untouched.
        let _ = victim;
        sim.run();
        assert!(fired.get());
    }

    #[test]
    fn run_until_advances_clock_past_last_event() {
        let mut sim = Simulator::new();
        sim.schedule_at(10, |_| {});
        sim.schedule_at(100, |_| {});
        sim.run_until(50);
        assert_eq!(sim.now(), 50);
        assert_eq!(sim.events_executed(), 1);
        sim.run_until(200);
        assert_eq!(sim.now(), 200);
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(100, |sim| {
            sim.schedule_at(50, |_| {});
        });
        sim.run();
    }

    #[test]
    fn schedule_in_saturates() {
        let mut sim = Simulator::new();
        sim.schedule_in(Ns::MAX, |_| {});
        // Does not panic; event sits at Ns::MAX.
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn many_events_stay_deterministic() {
        let run = || {
            let mut sim = Simulator::new();
            let trace = Rc::new(RefCell::new(Vec::new()));
            for i in 0..1000u64 {
                let trace = trace.clone();
                sim.schedule_at((i * 7919) % 503, move |_| trace.borrow_mut().push(i));
            }
            sim.run();
            let t = trace.borrow().clone();
            t
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_handler_reschedules_itself_without_new_handles() {
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        let handler: SharedHandler = Rc::new(RefCell::new(move |sim: &mut Simulator| {
            h.borrow_mut().push(sim.now());
            if sim.now() < 50 {
                Some(sim.now() + 10)
            } else {
                None
            }
        }));
        sim.schedule_shared_at(10, handler);
        sim.run();
        assert_eq!(*hits.borrow(), vec![10, 20, 30, 40, 50]);
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn shared_handler_can_be_scheduled_many_times_and_interleaves_fifo() {
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        let handler: SharedHandler = Rc::new(RefCell::new(move |sim: &mut Simulator| {
            h.borrow_mut().push(('s', sim.now()));
            None
        }));
        let h2 = hits.clone();
        sim.schedule_shared_at(100, handler.clone());
        sim.schedule_at(100, move |sim| h2.borrow_mut().push(('o', sim.now())));
        sim.schedule_shared_at(100, handler.clone());
        sim.schedule_shared_at(40, handler);
        sim.run();
        assert_eq!(
            *hits.borrow(),
            vec![('s', 40), ('s', 100), ('o', 100), ('s', 100)],
            "shared and boxed events interleave strictly by (time, seq)"
        );
    }

    #[test]
    fn shared_handler_events_cancel_like_any_other() {
        let mut sim = Simulator::new();
        let count = Rc::new(Cell::new(0u32));
        let c = count.clone();
        let handler: SharedHandler = Rc::new(RefCell::new(move |_: &mut Simulator| {
            c.set(c.get() + 1);
            None
        }));
        let keep = sim.schedule_shared_at(10, handler.clone());
        let kill = sim.schedule_shared_at(20, handler);
        assert!(sim.cancel(kill));
        sim.run();
        assert_eq!(count.get(), 1);
        assert!(!sim.cancel(keep), "fired event cannot be cancelled");
        assert_eq!(sim.now(), 10, "cancelled husk must not advance the clock");
    }

    #[test]
    fn slots_are_recycled_under_steady_state() {
        let mut sim = Simulator::new();
        // A self-rescheduling handler ticking 10_000 times keeps exactly
        // one slot live, however long it runs.
        let n = Rc::new(Cell::new(0u32));
        let n2 = n.clone();
        let handler: SharedHandler = Rc::new(RefCell::new(move |sim: &mut Simulator| {
            n2.set(n2.get() + 1);
            if n2.get() < 10_000 {
                Some(sim.now() + 1)
            } else {
                None
            }
        }));
        sim.schedule_shared_at(0, handler);
        sim.run();
        assert_eq!(n.get(), 10_000);
        assert!(
            sim.slots.len() <= 2,
            "steady-state chain must recycle slots, used {}",
            sim.slots.len()
        );
    }

    #[test]
    fn run_until_does_not_overshoot_through_cancelled_husk() {
        let mut sim = Simulator::new();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let early = sim.schedule_at(10, |_| {});
        sim.schedule_at(1_000, move |_| f.set(true));
        sim.cancel(early);
        // The husk at t=10 is within the deadline; the live event at
        // t=1000 is not and must stay queued.
        sim.run_until(50);
        assert!(!fired.get(), "event beyond the deadline fired");
        assert_eq!(sim.now(), 50);
        sim.run();
        assert!(fired.get());
        assert_eq!(sim.now(), 1_000);
    }

    #[test]
    fn a_popped_root_is_not_pending_and_the_next_arm_takes_its_place() {
        let mut sim = Simulator::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let log = |tag: u32| {
            let order = order.clone();
            move |_: &mut Simulator| order.borrow_mut().push(tag)
        };
        for t in [10u64, 20, 30, 40] {
            sim.schedule_at(t, log(t as u32));
        }
        assert!(sim.step());
        assert_eq!(sim.pending(), 3, "the hole at the root is not an entry");
        sim.schedule_at(35, log(35)); // drops into the hole, sinks
        assert_eq!(sim.pending(), 4);
        assert!(sim.step());
        assert_eq!(sim.pending(), 3);
        sim.run_until(20); // a peek closes the hole with the last leaf
        assert_eq!(sim.pending(), 3);
        sim.schedule_at(25, log(25)); // no hole: appended, rises
        sim.run();
        assert_eq!(*order.borrow(), vec![10, 20, 25, 30, 35, 40]);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn cancel_storm_leaves_no_live_state() {
        let mut sim = Simulator::new();
        let mut ids = Vec::new();
        for i in 0..10_000u64 {
            ids.push(sim.schedule_at(1_000 + i, |_| {}));
        }
        for id in &ids {
            assert!(sim.cancel(*id));
        }
        for id in &ids {
            assert!(!sim.cancel(*id), "second cancel must report false");
        }
        sim.run();
        assert_eq!(sim.events_executed(), 0);
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.now(), 0, "only husks were queued; the clock must hold");
    }

    #[test]
    fn equal_time_ties_break_by_lane_then_lane_order() {
        let mut sim = Simulator::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        // Schedule in a deliberately scrambled call order; the firing
        // order must sort by (lane, within-lane call order), not by the
        // global call order.
        for (lane, tag) in [(2u32, "c0"), (0, "a0"), (1, "b0"), (2, "c1"), (0, "a1")] {
            let order = order.clone();
            sim.schedule_at_on(lane, 100, move |_| order.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a0", "a1", "b0", "c0", "c1"]);
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn lane_order_is_independent_of_other_lanes_interleaving() {
        // The property the sharded executor rests on: the relative order
        // of one lane's events depends only on that lane's schedule
        // calls, so dropping the other lane's calls entirely must leave
        // the surviving lane's order untouched.
        let run = |skip_lane_2: bool| {
            let mut sim = Simulator::new();
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..10u64 {
                let order = order.clone();
                sim.schedule_at_on(1, 50, move |_| order.borrow_mut().push(i));
                if !skip_lane_2 {
                    sim.schedule_at_on(2, 50, |_| {});
                }
            }
            sim.run();
            let o = order.borrow().clone();
            o
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn cancel_works_across_lanes() {
        let mut sim = Simulator::new();
        let fired = Rc::new(Cell::new(0u32));
        let f1 = fired.clone();
        let f2 = fired.clone();
        let keep = sim.schedule_at_on(5, 10, move |_| f1.set(f1.get() + 1));
        let kill = sim.schedule_at_on(5, 20, move |_| f2.set(f2.get() + 10));
        assert!(sim.cancel(kill));
        assert!(!sim.cancel(kill));
        sim.run();
        assert_eq!(fired.get(), 1);
        assert!(!sim.cancel(keep), "fired event cannot be cancelled");
    }

    #[test]
    fn run_before_stops_strictly_at_deadline() {
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        for t in [10u64, 50, 100] {
            let hits = hits.clone();
            sim.schedule_at(t, move |sim| hits.borrow_mut().push(sim.now()));
        }
        // Events strictly before 50 run; the event AT 50 stays queued.
        sim.run_before(50);
        assert_eq!(*hits.borrow(), vec![10]);
        assert_eq!(sim.now(), 50);
        // Scheduling at exactly the barrier time is legal (the sharded
        // executor injects boundary cells here) and fires before the
        // previously queued same-time event only if its key sorts first.
        let hits2 = hits.clone();
        sim.schedule_at(50, move |sim| hits2.borrow_mut().push(sim.now() + 1));
        sim.run();
        assert_eq!(*hits.borrow(), vec![10, 50, 51, 100]);
        assert_eq!(sim.now(), 100);
    }

    #[test]
    fn run_before_on_empty_queue_advances_clock() {
        let mut sim = Simulator::new();
        sim.run_before(77);
        assert_eq!(sim.now(), 77);
        assert_eq!(sim.events_executed(), 0);
    }
}
