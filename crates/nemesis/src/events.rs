//! Inter-domain events (§3.4).
//!
//! "Nemesis provides a single mechanism by which domains can communicate
//! the occurrence of events to each other. ... Events themselves do not
//! carry values, but merely indicate that something has occurred";
//! closures associated with each event hide the heterogeneity from the
//! dispatcher. A domain becomes eligible for scheduling when it has
//! pending events, and two signalling disciplines exist:
//!
//! * **synchronous** — the sender voluntarily gives up the processor to
//!   the signalled domain, minimizing latency (the inter-domain-call
//!   case);
//! * **asynchronous** — the sender keeps running and the receiver picks
//!   the events up at its next activation, maximizing throughput (the
//!   packet-demultiplexer case).
//!
//! Events are *counted*: sending twice before the receiver runs delivers
//! one activation with a count of two, not two queued messages. The
//! timing is a 1994 workstation's: a synchronous signal is delivered
//! [`CTX_SWITCH`] (5 µs) plus [`ACTIVATION`] (2 µs) after it is sent, an
//! asynchronous one [`SCHED_DELAY`] (1 ms) plus [`ACTIVATION`]. The
//! module also provides the event-pair + shared-memory-queue **IDC**
//! channel the paper describes for inter-domain procedure calls.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::{Rc, Weak};

use pegasus_sim::time::Ns;
use pegasus_sim::{SharedHandler, Simulator};

pub use crate::vp::DomainId;

/// Identifier of an event channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub usize);

/// How a send is signalled to the receiving domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalMode {
    /// Yield the processor to the receiver: one context switch of
    /// latency, paid per event.
    Synchronous,
    /// Keep running; the receiver is activated at its next scheduling
    /// opportunity and drains everything pending at once.
    Asynchronous,
}

/// Direct hand-off cost for a synchronous signal: a protected context
/// switch of a 1994-era workstation, ~5 µs.
pub const CTX_SWITCH: Ns = 5_000;

/// Delay until an asynchronously signalled domain is next scheduled:
/// one 1 ms scheduling quantum.
pub const SCHED_DELAY: Ns = 1_000_000;

/// Fixed cost of entering a domain's activation handler: a ~2 µs
/// upcall.
pub const ACTIVATION: Ns = 2_000;

/// A closure invoked when a domain is activated with pending events.
///
/// Receives the simulator, a handle back to the event system (so it can
/// send in turn), the channel, and the number of coalesced occurrences.
pub type Handler = Box<dyn FnMut(&mut Simulator, &Rc<RefCell<EventSystem>>, ChannelId, u64)>;

struct DomainSlot {
    pending: BTreeMap<ChannelId, u64>,
    activation_scheduled: bool,
    handler: Option<Rc<RefCell<Handler>>>,
    /// The shared engine event that runs this domain's activation;
    /// created on first signal, reused (allocation-free) ever after.
    activation_event: Option<SharedHandler>,
    /// Number of activations this domain has received.
    activations: u64,
    /// Number of (coalesced) event deliveries.
    deliveries: u64,
}

struct ChannelState {
    rx: DomainId,
    sent: u64,
    acked: u64,
}

/// The kernel's event dispatcher.
pub struct EventSystem {
    domains: Vec<DomainSlot>,
    channels: Vec<ChannelState>,
}

impl EventSystem {
    /// Creates an event system, wrapped for sharing with handlers.
    pub fn shared() -> Rc<RefCell<EventSystem>> {
        Rc::new(RefCell::new(EventSystem {
            domains: Vec::new(),
            channels: Vec::new(),
        }))
    }

    /// Registers a domain.
    pub fn add_domain(&mut self) -> DomainId {
        self.domains.push(DomainSlot {
            pending: BTreeMap::new(),
            activation_scheduled: false,
            handler: None,
            activation_event: None,
            activations: 0,
            deliveries: 0,
        });
        DomainId(self.domains.len() - 1)
    }

    /// Attaches the closure run when `domain` is activated.
    pub fn set_handler(&mut self, domain: DomainId, handler: Handler) {
        self.domains[domain.0].handler = Some(Rc::new(RefCell::new(handler)));
    }

    /// Opens an event channel delivering to `rx`.
    pub fn open_channel(&mut self, rx: DomainId) -> ChannelId {
        self.channels.push(ChannelState {
            rx,
            sent: 0,
            acked: 0,
        });
        ChannelId(self.channels.len() - 1)
    }

    /// Activations a domain has received.
    pub fn activations(&self, d: DomainId) -> u64 {
        self.domains[d.0].activations
    }

    /// Coalesced deliveries a domain has received.
    pub fn deliveries(&self, d: DomainId) -> u64 {
        self.domains[d.0].deliveries
    }

    /// Events acknowledged (delivered into an activation) on a channel.
    pub fn acked_count(&self, c: ChannelId) -> u64 {
        self.channels[c.0].acked
    }

    /// Sends one occurrence on `chan`.
    ///
    /// This is an associated function taking the shared handle because
    /// delivery re-enters the system from inside the scheduled closure.
    pub fn send(
        sys: &Rc<RefCell<EventSystem>>,
        sim: &mut Simulator,
        chan: ChannelId,
        mode: SignalMode,
    ) {
        let rx = sys.borrow().channels[chan.0].rx;
        let delay = {
            let mut s = sys.borrow_mut();
            s.channels[chan.0].sent += 1;
            *s.domains[rx.0].pending.entry(chan).or_insert(0) += 1;
            let slot = &mut s.domains[rx.0];
            match mode {
                SignalMode::Synchronous => {
                    // A sync send always hands the CPU over now; any
                    // previously scheduled async activation is subsumed.
                    slot.activation_scheduled = true;
                    Some(CTX_SWITCH)
                }
                SignalMode::Asynchronous => {
                    if slot.activation_scheduled {
                        None // coalesce into the already-pending activation
                    } else {
                        slot.activation_scheduled = true;
                        Some(SCHED_DELAY)
                    }
                }
            }
        };
        if let Some(delay) = delay {
            let event = Self::activation_event(sys, rx);
            sim.schedule_shared_in(delay + ACTIVATION, event);
        }
    }

    /// The domain's reusable activation event, created on first use. It
    /// holds only a weak reference to the system, so the dispatcher and
    /// its handlers don't keep each other alive.
    fn activation_event(sys: &Rc<RefCell<EventSystem>>, d: DomainId) -> SharedHandler {
        if let Some(e) = sys.borrow().domains[d.0].activation_event.clone() {
            return e;
        }
        let weak: Weak<RefCell<EventSystem>> = Rc::downgrade(sys);
        let e: SharedHandler = Rc::new(RefCell::new(move |sim: &mut Simulator| {
            if let Some(sys) = weak.upgrade() {
                Self::activate(&sys, sim, d);
            }
            None
        }));
        sys.borrow_mut().domains[d.0].activation_event = Some(e.clone());
        e
    }

    /// Runs a domain's activation: drains pending events and invokes the
    /// handler once per channel with the coalesced count.
    fn activate(sys: &Rc<RefCell<EventSystem>>, sim: &mut Simulator, d: DomainId) {
        let (work, handler) = {
            let mut s = sys.borrow_mut();
            let slot = &mut s.domains[d.0];
            slot.activation_scheduled = false;
            if slot.pending.is_empty() {
                return;
            }
            slot.activations += 1;
            let work: Vec<(ChannelId, u64)> =
                std::mem::take(&mut slot.pending).into_iter().collect();
            slot.deliveries += work.len() as u64;
            let handler = slot.handler.clone();
            for &(c, n) in &work {
                s.channels[c.0].acked += n;
            }
            (work, handler)
        };
        if let Some(handler) = handler {
            for (chan, count) in work {
                (handler.borrow_mut())(sim, sys, chan, count);
            }
        }
    }
}

/// An inter-domain call channel: "a pair of message queues in shared
/// memory between the relevant client and server domains and a pair of
/// events" (§3.4).
pub struct IdcChannel {
    /// Client → server request queue (the shared-memory segment).
    pub requests: Rc<RefCell<VecDeque<Vec<u8>>>>,
    /// Server → client reply queue.
    pub replies: Rc<RefCell<VecDeque<Vec<u8>>>>,
    /// Event raised by the client to wake the server.
    pub ev_request: ChannelId,
    /// Event raised by the server to wake the client.
    pub ev_reply: ChannelId,
}

impl IdcChannel {
    /// Builds the channel between `client` and `server`, registering a
    /// server handler that maps each request through `service` and a
    /// client handler `on_reply` consuming replies.
    ///
    /// `mode` selects the notification discipline in both directions;
    /// the paper observes that "lowest latency for a client/server
    /// interaction will be achieved by the client and server implementing
    /// the synchronous form".
    pub fn new(
        sys: &Rc<RefCell<EventSystem>>,
        client: DomainId,
        server: DomainId,
        mode: SignalMode,
        mut service: impl FnMut(&[u8]) -> Vec<u8> + 'static,
        mut on_reply: impl FnMut(&mut Simulator, Vec<u8>) + 'static,
    ) -> IdcChannel {
        let requests: Rc<RefCell<VecDeque<Vec<u8>>>> = Rc::new(RefCell::new(VecDeque::new()));
        let replies: Rc<RefCell<VecDeque<Vec<u8>>>> = Rc::new(RefCell::new(VecDeque::new()));
        let ev_request = sys.borrow_mut().open_channel(server);
        let ev_reply = sys.borrow_mut().open_channel(client);

        let req_q = requests.clone();
        let rep_q = replies.clone();
        sys.borrow_mut().set_handler(
            server,
            Box::new(move |sim, sys, _chan, _count| {
                // Drain every queued request (counted events coalesce).
                loop {
                    let msg = req_q.borrow_mut().pop_front();
                    let Some(msg) = msg else { break };
                    let reply = service(&msg);
                    rep_q.borrow_mut().push_back(reply);
                    EventSystem::send(sys, sim, ev_reply, mode);
                }
            }),
        );

        let rep_q2 = replies.clone();
        sys.borrow_mut().set_handler(
            client,
            Box::new(move |sim, _sys, _chan, _count| loop {
                let msg = rep_q2.borrow_mut().pop_front();
                let Some(msg) = msg else { break };
                on_reply(sim, msg);
            }),
        );

        IdcChannel {
            requests,
            replies,
            ev_request,
            ev_reply,
        }
    }

    /// Issues a call: enqueue the request and raise the request event.
    pub fn call(
        &self,
        sys: &Rc<RefCell<EventSystem>>,
        sim: &mut Simulator,
        msg: Vec<u8>,
        mode: SignalMode,
    ) {
        self.requests.borrow_mut().push_back(msg);
        EventSystem::send(sys, sim, self.ev_request, mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_send_delivers_after_switch_plus_activation() {
        let sys = EventSystem::shared();
        let mut sim = Simulator::new();
        let rx = sys.borrow_mut().add_domain();
        let _tx = sys.borrow_mut().add_domain();
        let chan = sys.borrow_mut().open_channel(rx);
        let seen: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        sys.borrow_mut().set_handler(
            rx,
            Box::new(move |sim, _sys, _c, n| seen2.borrow_mut().push((sim.now(), n))),
        );
        EventSystem::send(&sys, &mut sim, chan, SignalMode::Synchronous);
        sim.run();
        assert_eq!(*seen.borrow(), vec![(7_000, 1)]); // 5 µs switch + 2 µs upcall
    }

    #[test]
    fn async_sends_coalesce_into_one_activation() {
        let sys = EventSystem::shared();
        let mut sim = Simulator::new();
        let rx = sys.borrow_mut().add_domain();
        let chan = sys.borrow_mut().open_channel(rx);
        let seen: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        sys.borrow_mut().set_handler(
            rx,
            Box::new(move |_sim, _sys, _c, n| seen2.borrow_mut().push(n)),
        );
        for _ in 0..10 {
            EventSystem::send(&sys, &mut sim, chan, SignalMode::Asynchronous);
        }
        sim.run();
        // One activation, count of 10 — the counted-event semantics.
        assert_eq!(*seen.borrow(), vec![10]);
        assert_eq!(sys.borrow().activations(rx), 1);
        assert_eq!(sys.borrow().channels[chan.0].sent, 10);
        assert_eq!(sys.borrow().acked_count(chan), 10);
    }

    #[test]
    fn sync_beats_async_on_latency() {
        let deliver_time = |mode| {
            let sys = EventSystem::shared();
            let mut sim = Simulator::new();
            let rx = sys.borrow_mut().add_domain();
            let chan = sys.borrow_mut().open_channel(rx);
            let t: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
            let t2 = t.clone();
            sys.borrow_mut().set_handler(
                rx,
                Box::new(move |sim, _s, _c, _n| *t2.borrow_mut() = sim.now()),
            );
            EventSystem::send(&sys, &mut sim, chan, mode);
            sim.run();
            let v = *t.borrow();
            v
        };
        let sync = deliver_time(SignalMode::Synchronous);
        let asynch = deliver_time(SignalMode::Asynchronous);
        assert!(sync < asynch, "sync {sync} should beat async {asynch}");
        assert_eq!(asynch - sync, 1_000_000 - 5_000);
    }

    #[test]
    fn async_batches_reduce_activations_per_event() {
        // The demultiplexer argument: N events, async → far fewer
        // activations than N; sync → one per event.
        let activations_for = |mode| {
            let sys = EventSystem::shared();
            let mut sim = Simulator::new();
            let rx = sys.borrow_mut().add_domain();
            let chan = sys.borrow_mut().open_channel(rx);
            sys.borrow_mut().set_handler(rx, Box::new(|_, _, _, _| {}));
            for i in 0..100u64 {
                let sys = sys.clone();
                sim.schedule_at(i * 10_000, move |sim| {
                    EventSystem::send(&sys, sim, chan, mode);
                });
            }
            sim.run();
            let n = sys.borrow().activations(rx);
            n
        };
        let sync_acts = activations_for(SignalMode::Synchronous);
        let async_acts = activations_for(SignalMode::Asynchronous);
        assert_eq!(sync_acts, 100);
        assert!(async_acts <= 2, "async activations: {async_acts}");
    }

    #[test]
    fn events_carry_no_values_only_counts() {
        let sys = EventSystem::shared();
        let mut sim = Simulator::new();
        let rx = sys.borrow_mut().add_domain();
        let a = sys.borrow_mut().open_channel(rx);
        let b = sys.borrow_mut().open_channel(rx);
        let seen: Rc<RefCell<Vec<(ChannelId, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        sys.borrow_mut().set_handler(
            rx,
            Box::new(move |_s, _y, c, n| seen2.borrow_mut().push((c, n))),
        );
        EventSystem::send(&sys, &mut sim, a, SignalMode::Asynchronous);
        EventSystem::send(&sys, &mut sim, b, SignalMode::Asynchronous);
        EventSystem::send(&sys, &mut sim, b, SignalMode::Asynchronous);
        sim.run();
        // One activation, two channels, counts 1 and 2, in channel order.
        assert_eq!(*seen.borrow(), vec![(a, 1), (b, 2)]);
    }

    #[test]
    fn idc_round_trip_sync() {
        let sys = EventSystem::shared();
        let mut sim = Simulator::new();
        let client = sys.borrow_mut().add_domain();
        let server = sys.borrow_mut().add_domain();
        type Got = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;
        let got: Got = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        let idc = IdcChannel::new(
            &sys,
            client,
            server,
            SignalMode::Synchronous,
            |req| {
                let mut r = req.to_vec();
                r.reverse();
                r
            },
            move |sim, reply| got2.borrow_mut().push((sim.now(), reply)),
        );
        idc.call(&sys, &mut sim, b"ping".to_vec(), SignalMode::Synchronous);
        sim.run();
        let g = got.borrow();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].1, b"gnip".to_vec());
        // Two sync hops: 2 × (5 µs + 2 µs) = 14 µs.
        assert_eq!(g[0].0, 14_000);
    }

    #[test]
    fn idc_pipelined_calls_all_complete() {
        let sys = EventSystem::shared();
        let mut sim = Simulator::new();
        let client = sys.borrow_mut().add_domain();
        let server = sys.borrow_mut().add_domain();
        let replies: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
        let replies2 = replies.clone();
        let idc = IdcChannel::new(
            &sys,
            client,
            server,
            SignalMode::Synchronous,
            |req| req.to_vec(),
            move |_sim, reply| replies2.borrow_mut().push(reply),
        );
        for i in 0..20u8 {
            idc.call(&sys, &mut sim, vec![i], SignalMode::Synchronous);
        }
        sim.run();
        let r = replies.borrow();
        assert_eq!(r.len(), 20);
        assert_eq!(r[19], vec![19]);
    }

    #[test]
    fn activation_with_no_pending_is_a_noop() {
        let sys = EventSystem::shared();
        let mut sim = Simulator::new();
        let rx = sys.borrow_mut().add_domain();
        let chan = sys.borrow_mut().open_channel(rx);
        sys.borrow_mut().set_handler(rx, Box::new(|_, _, _, _| {}));
        // Sync send schedules the sync activation; a racing async send
        // coalesces. Only one activation results.
        EventSystem::send(&sys, &mut sim, chan, SignalMode::Synchronous);
        EventSystem::send(&sys, &mut sim, chan, SignalMode::Asynchronous);
        sim.run();
        assert_eq!(sys.borrow().activations(rx), 1);
        assert_eq!(sys.borrow().acked_count(chan), 2);
    }
}
