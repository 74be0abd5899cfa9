//! Trains: one queue entry per event *source*.
//!
//! A link's queued cells, a camera's scanned rows and a play-out
//! buffer's holds are streams: their producer hands events over in time
//! order, and only the earliest can be the next to fire. A [`Train`]
//! keeps such a stream in its own FIFO and puts just the *head* in the
//! engine's heap, so the heap holds one entry per source however long
//! the source's backlog.
//!
//! The order events fire in is untouched. [`Train::push`] takes the
//! lane's next sequence number at the push — the program point where a
//! `schedule_*` call would take it — and the item keeps that key until
//! it fires; when the head fires the next item is armed under *its* key.
//! Events fire in `(time, lane, lane_seq)` order, a sorted queue's head
//! is its minimum, and the minimum over the heads of all sources is the
//! global minimum — so a run with trains executes the same events in the
//! same order as one that arms every item at push time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use crate::engine::{EventId, Lane, Reserved, SharedHandler, Simulator};
use crate::time::Ns;

type WeakHandler = Weak<RefCell<dyn FnMut(&mut Simulator) -> Option<Ns>>>;

/// One queued item with its fire time and the key reserved for it.
struct Car<T> {
    time: Ns,
    key: Reserved,
    item: T,
}

struct State<T> {
    /// Sorted by `(time, key)`; exactly the front is armed.
    cars: VecDeque<Car<T>>,
    /// The front's event, kept so an earlier arrival can displace it.
    armed: Option<EventId>,
    /// The train's handler, for re-arming from inside it. Weak: the
    /// handler owns this state.
    handler: Option<WeakHandler>,
}

/// A time-ordered stream of events served by one handler.
///
/// # Examples
///
/// ```
/// use pegasus_sim::{Simulator, Train};
/// use std::{cell::RefCell, rc::Rc};
///
/// let seen = Rc::new(RefCell::new(Vec::new()));
/// let log = seen.clone();
/// let train = Train::new(0, move |sim: &mut Simulator, tag: char| {
///     log.borrow_mut().push((sim.now(), tag));
/// });
/// let mut sim = Simulator::new();
/// train.push(&mut sim, 10, 'a');
/// train.push(&mut sim, 30, 'c');
/// train.push(&mut sim, 20, 'b'); // out of order: a sorted insert
/// assert_eq!(sim.pending(), 1, "only the head is in the engine's heap");
/// sim.run();
/// assert_eq!(*seen.borrow(), vec![(10, 'a'), (20, 'b'), (30, 'c')]);
/// assert_eq!(sim.events_executed(), 3);
/// ```
pub struct Train<T> {
    lane: Lane,
    state: Rc<RefCell<State<T>>>,
    handler: SharedHandler,
}

impl<T: 'static> Train<T> {
    /// Creates an empty train on `lane` whose items are handed to
    /// `serve`, each at its own time.
    pub fn new(lane: Lane, mut serve: impl FnMut(&mut Simulator, T) + 'static) -> Self {
        let state = Rc::new(RefCell::new(State {
            cars: VecDeque::new(),
            armed: None,
            handler: None,
        }));
        let handler: SharedHandler = {
            let state = state.clone();
            Rc::new(RefCell::new(move |sim: &mut Simulator| -> Option<Ns> {
                let item = {
                    let st = &mut *state.borrow_mut();
                    let head = st.cars.pop_front().expect("an armed train has a head");
                    debug_assert_eq!(head.time, sim.now(), "a car fires at its own time");
                    // Arm the successor before serving, so a push from
                    // inside `serve` finds the train as any other does.
                    st.armed = st.cars.front().map(|next| {
                        let me = st.handler.as_ref().and_then(Weak::upgrade);
                        sim.arm_reserved(next.time, &next.key, me.expect("the handler is running"))
                    });
                    head.item
                };
                serve(sim, item);
                None
            }))
        };
        state.borrow_mut().handler = Some(Rc::downgrade(&handler));
        Train {
            lane,
            state,
            handler,
        }
    }

    /// Moves later pushes to `lane`; queued items keep their keys.
    pub fn set_lane(&mut self, lane: Lane) {
        self.lane = lane;
    }

    /// Queues `item` to be served at `time`.
    ///
    /// Takes the lane's next sequence number now, exactly as
    /// [`Simulator::schedule_at_on`] would, so the item fires
    /// where an event scheduled here would. Pushes need not be in time
    /// order: an early one is inserted where it sorts and, if that is
    /// the front, armed in the old head's stead.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Simulator::now`].
    pub fn push(&self, sim: &mut Simulator, time: Ns, item: T) {
        let key = sim.reserve(self.lane);
        let st = &mut *self.state.borrow_mut();
        let sorts_before = |c: &Car<T>| (c.time, c.key.key()) < (time, key.key());
        // Keys only grow along a lane: an in-order push goes on the back.
        let at = if st.cars.back().is_none_or(sorts_before) {
            st.cars.len()
        } else {
            st.cars.partition_point(sorts_before)
        };
        let car = Car { time, key, item };
        if at == st.cars.len() {
            st.cars.push_back(car);
        } else {
            st.cars.insert(at, car);
        }
        if at == 0 {
            if let Some(displaced) = st.armed.take() {
                sim.cancel(displaced);
            }
            // A time in the past sorts before every pending event, so
            // it lands here and the arm refuses it.
            st.armed = Some(sim.arm_reserved(time, &st.cars[0].key, self.handler.clone()));
        }
    }

    /// Whether nothing is queued and waiting to be served.
    pub fn is_empty(&self) -> bool {
        self.state.borrow().cars.is_empty()
    }
}
