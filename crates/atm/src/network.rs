//! Topology construction and end-to-end virtual circuits.
//!
//! A [`Network`] owns a set of switches, the links between them, and the
//! endpoints (cameras, displays, audio nodes, host interfaces, file
//! servers) attached to switch ports. [`Network::open_vc`] performs what
//! ATM signalling did in Pegasus: route the connection, admission-control
//! every hop for guaranteed traffic, allocate VCIs, and install the
//! translation-table entries.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use pegasus_sim::time::Ns;
use pegasus_sim::Lane;

use crate::cell::Vci;
use crate::link::{Link, SinkRef};
use crate::signalling::{AdmissionController, AdmissionError, QosSpec, ServiceClass};
use crate::switch::{input_port, Switch};

/// Identifier of a switch within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchId(pub usize);

/// Identifier of an endpoint within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointId(pub usize);

/// Physical parameters of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: Ns,
}

impl LinkConfig {
    /// The 100 Mbit/s links the Pegasus testbed ran ("our ATM network
    /// runs only at a mere 100 megabits per second", §5).
    pub fn pegasus_default() -> Self {
        LinkConfig {
            rate_bps: 100_000_000,
            prop_delay: 1_000, // 1 µs: a building-scale fibre run
        }
    }
}

/// The wiring pattern of a programmatically built switch fabric.
///
/// [`Network::build_topology`] turns a shape plus a switch count into a
/// wired fabric; scenario specs pick the shape declaratively instead of
/// hand-connecting switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyShape {
    /// Switch 0 is the hub; every other switch uplinks to it. One
    /// switch degenerates to a single backbone.
    Star,
    /// Each switch links to its successor, the last back to the first.
    /// (Two switches get a single link, not a doubled one.)
    Ring,
    /// Every pair of switches is directly linked — maximum path
    /// diversity, `n·(n−1)/2` links.
    FullMesh,
}

/// A live virtual circuit, as returned by [`Network::open_vc`].
#[derive(Debug, Clone)]
pub struct VcHandle {
    /// Connection identifier (unique per network).
    pub id: u64,
    /// The VCI the source endpoint must stamp on outgoing cells.
    pub src_vci: Vci,
    /// The VCI cells carry when they reach the destination endpoint.
    pub dst_vci: Vci,
    /// The QoS granted.
    pub qos: QosSpec,
    /// Route entries (switch index, in port, in VCI) for teardown.
    route: Vec<(usize, usize, Vci)>,
    /// Reservations (admission-controller key, bits/second) for teardown.
    reservations: Vec<(ReservationKey, u64)>,
    /// Source endpoint.
    pub src: EndpointId,
    /// Destination endpoint.
    pub dst: EndpointId,
}

impl VcHandle {
    /// Whether this circuit's installed route passes through `sw` —
    /// the question signalling asks when a switch dies and survivors
    /// must be re-routed.
    pub fn crosses_switch(&self, sw: SwitchId) -> bool {
        self.route.iter().any(|&(s, _, _)| s == sw.0)
    }

    /// Every VCI this circuit's cells carry anywhere on the path: the
    /// incoming label at each hop plus the final delivery label. VCIs
    /// are allocated from one network-wide counter, so any of these
    /// labels identifies exactly this circuit — per-VCI drop counters
    /// at switches and links attribute back through this set.
    pub fn vcis(&self) -> impl Iterator<Item = Vci> + '_ {
        self.route
            .iter()
            .map(|&(_, _, v)| v)
            .chain(std::iter::once(self.dst_vci))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ReservationKey {
    /// Endpoint transmit direction (device → switch).
    EndpointTx(usize),
    /// A switch output port (switch → neighbour or switch → endpoint).
    SwitchOut(usize, usize),
}

/// An end not attached yet: the switch it will hang off and its access
/// link. [`Network::check_vcs`] routes to and from it as if it were
/// attached; a flow names the `k`-th pending end of a set by the id it
/// will get, `EndpointId(endpoint_count() + k)`.
pub type PendingEnd = (SwitchId, LinkConfig);

/// A routed circuit nothing has been charged for yet: its
/// inter-switch `(switch, out port)` hops and the `(key, bits/second)`
/// reservations it needs.
type VcPlan = (Vec<(usize, usize)>, Vec<(ReservationKey, u64)>);

/// A flow set [`Network::check_vcs`] found room for: the pending ends
/// to attach and every flow routed and priced — all that
/// [`Network::commit_vcs`] needs to open it. It holds for the network
/// it was checked on for as long as that network is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct VcsPlan {
    pending: Vec<PendingEnd>,
    flows: Vec<((EndpointId, EndpointId, QosSpec), VcPlan)>,
}

/// What [`Network::audit_reservations`] found out of step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LedgerDrift {
    /// The remembered fullest-link figure disagrees with the per-link
    /// ledgers it summarises.
    Maximum {
        /// The running maximum the network had remembered.
        remembered: f64,
        /// The same figure folded afresh over every link's ledger.
        folded: f64,
    },
    /// The ledger map is not one ledger per link: one transmit ledger
    /// per attached endpoint, one output ledger per wired switch port.
    Unmatched {
        /// Ledgers whose endpoint or port is gone.
        orphans: usize,
        /// Links with no ledger.
        missing: usize,
    },
}

impl std::fmt::Display for LedgerDrift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerDrift::Maximum { remembered, folded } => write!(
                f,
                "bandwidth ledger drift: remembered maximum utilization {remembered} but the links fold to {folded}"
            ),
            LedgerDrift::Unmatched { orphans, missing } => write!(
                f,
                "bandwidth ledger map drift: {orphans} ledgers without a link, {missing} links without a ledger"
            ),
        }
    }
}

impl std::error::Error for LedgerDrift {}

struct EndpointInfo {
    switch: usize,
    port: usize,
    tx: Rc<RefCell<Link>>,
}

/// One direction of an inter-switch trunk link, as recorded at wiring
/// time. Trunks are the only links that cross region-shard boundaries,
/// so each direction gets its own scheduling lane (assigned in wiring
/// order, starting at 1; lane 0 stays the shared default). The lane
/// makes every trunk's delivery sequence independent of what the rest
/// of the city schedules — the property that lets a sharded run replay
/// the exact 1-shard event order on the cut.
#[derive(Debug, Clone, Copy)]
pub struct TrunkDir {
    /// Transmitting switch index.
    pub from: usize,
    /// Output port on the transmitting switch.
    pub port: usize,
    /// Receiving switch index.
    pub to: usize,
    /// Scheduling lane of this direction's delivery events.
    pub lane: Lane,
    /// Line rate, for lookahead (cell serialisation time) computation.
    pub rate_bps: u64,
    /// One-way propagation delay, the other lookahead term.
    pub prop_delay: Ns,
}

/// Fraction of each link's rate available to guaranteed reservations.
pub const RESERVABLE_FRACTION: f64 = 0.95;

/// The network: switches, inter-switch links, endpoints, signalling.
pub struct Network {
    switches: Vec<Rc<RefCell<Switch>>>,
    /// adjacency\[s\] = list of (out port on s, peer switch index).
    adj: Vec<Vec<(usize, usize)>>,
    /// used_ports\[s\] = lowest port index never explicitly or
    /// automatically wired on switch `s` (ports below it may include
    /// gaps left by explicit wiring; auto-allocation never reuses them).
    used_ports: Vec<usize>,
    endpoints: Vec<EndpointInfo>,
    /// Every inter-switch link direction, in wiring order. Entry `i`
    /// carries lane `i + 1`.
    trunks: Vec<TrunkDir>,
    acs: HashMap<ReservationKey, AdmissionController>,
    /// A copy of [`Network::fold_utilization`] kept current by
    /// [`Network::reserve_on`]; `None` once a release or a displaced
    /// controller may have lowered the fold, until the next query
    /// recomputes it. When `Some`, it equals the fold bit for bit.
    max_util: Cell<Option<f64>>,
    /// dead\[s\] = switch `s` has failed: no adjacency, no routes, and
    /// signalling refuses to route anything through or onto it.
    dead: Vec<bool>,
    next_vci: Vci,
    next_conn: u64,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

/// The network owns its fabric, and takes it down when it goes.
///
/// Switch → output link → the next switch's input port → that switch:
/// wired, the fabric is a reference cycle, and every display, audio sink
/// and playback client hangs off some output link. Left alone no
/// finished world would ever be freed, so dropping the network pulls
/// every switch's output lines. A handle to one of its switches kept
/// past this point is a switch with no lines.
impl Drop for Network {
    fn drop(&mut self) {
        for sw in &self.switches {
            // A switch someone is borrowing right now (a drop from
            // inside a delivery, or an unwind through one) keeps its
            // lines: leaking is better than panicking here.
            if let Ok(mut sw) = sw.try_borrow_mut() {
                sw.unplug_outputs();
            }
        }
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network {
            switches: Vec::new(),
            adj: Vec::new(),
            used_ports: Vec::new(),
            endpoints: Vec::new(),
            trunks: Vec::new(),
            acs: HashMap::new(),
            max_util: Cell::new(Some(0.0)),
            dead: Vec::new(),
            next_vci: 32,
            next_conn: 1,
        }
    }

    /// Adds a switch with `ports` ports and `fabric_latency` per-cell
    /// fabric delay.
    pub fn add_switch(&mut self, name: &str, ports: usize, fabric_latency: Ns) -> SwitchId {
        self.switches
            .push(Switch::shared(name, ports, fabric_latency));
        self.adj.push(Vec::new());
        self.used_ports.push(0);
        self.dead.push(false);
        SwitchId(self.switches.len() - 1)
    }

    /// Access to a switch (for stats or manual route inspection).
    pub fn switch(&self, id: SwitchId) -> &Rc<RefCell<Switch>> {
        &self.switches[id.0]
    }

    /// Number of switches in the network.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Reserves the next never-used port on `sw`, growing the switch if
    /// its fixed port count is exhausted.
    pub fn alloc_port(&mut self, sw: SwitchId) -> usize {
        let port = self.used_ports[sw.0];
        self.switches[sw.0].borrow_mut().grow_ports(port + 1);
        self.used_ports[sw.0] = port + 1;
        port
    }

    /// Wires a fabric of `n` fresh switches in the given shape and
    /// returns their ids. Switches are named `{prefix}{index}` with
    /// `ports` initial ports each (they grow on demand as endpoints
    /// attach).
    pub fn build_topology(
        &mut self,
        shape: TopologyShape,
        n: usize,
        prefix: &str,
        ports: usize,
        fabric_latency: Ns,
        cfg: LinkConfig,
    ) -> Vec<SwitchId> {
        assert!(n >= 1, "a topology needs at least one switch");
        let ids: Vec<SwitchId> = (0..n)
            .map(|i| self.add_switch(&format!("{prefix}{i}"), ports, fabric_latency))
            .collect();
        match shape {
            TopologyShape::Star => {
                for &spoke in &ids[1..] {
                    self.connect_switches_auto(ids[0], spoke, cfg);
                }
            }
            TopologyShape::Ring => {
                if n == 2 {
                    self.connect_switches_auto(ids[0], ids[1], cfg);
                } else if n > 2 {
                    for i in 0..n {
                        self.connect_switches_auto(ids[i], ids[(i + 1) % n], cfg);
                    }
                }
            }
            TopologyShape::FullMesh => {
                for i in 0..n {
                    for j in i + 1..n {
                        self.connect_switches_auto(ids[i], ids[j], cfg);
                    }
                }
            }
        }
        ids
    }

    /// Connects two switches bidirectionally with identical link
    /// parameters in each direction.
    pub fn connect_switches(
        &mut self,
        a: SwitchId,
        pa: usize,
        b: SwitchId,
        pb: usize,
        cfg: LinkConfig,
    ) {
        let mut link_ab = Link::new(
            cfg.rate_bps,
            cfg.prop_delay,
            input_port(&self.switches[b.0], pb),
        );
        let mut link_ba = Link::new(
            cfg.rate_bps,
            cfg.prop_delay,
            input_port(&self.switches[a.0], pa),
        );
        // Every trunk direction gets its own scheduling lane,
        // unconditionally — single-threaded runs use the same lanes, so
        // equal-time tie-breaking is identical at every shard count.
        let lane_ab = (self.trunks.len() + 1) as Lane;
        let lane_ba = (self.trunks.len() + 2) as Lane;
        link_ab.set_lane(lane_ab);
        link_ba.set_lane(lane_ba);
        self.trunks.push(TrunkDir {
            from: a.0,
            port: pa,
            to: b.0,
            lane: lane_ab,
            rate_bps: cfg.rate_bps,
            prop_delay: cfg.prop_delay,
        });
        self.trunks.push(TrunkDir {
            from: b.0,
            port: pb,
            to: a.0,
            lane: lane_ba,
            rate_bps: cfg.rate_bps,
            prop_delay: cfg.prop_delay,
        });
        self.switches[a.0].borrow_mut().attach_output(pa, link_ab);
        self.switches[b.0].borrow_mut().attach_output(pb, link_ba);
        self.adj[a.0].push((pa, b.0));
        self.adj[b.0].push((pb, a.0));
        self.used_ports[a.0] = self.used_ports[a.0].max(pa + 1);
        self.used_ports[b.0] = self.used_ports[b.0].max(pb + 1);
        self.add_ledger(ReservationKey::SwitchOut(a.0, pa), cfg.rate_bps);
        self.add_ledger(ReservationKey::SwitchOut(b.0, pb), cfg.rate_bps);
    }

    /// Connects two switches bidirectionally on automatically allocated
    /// ports, growing either switch as needed. Returns the ports used.
    pub fn connect_switches_auto(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        cfg: LinkConfig,
    ) -> (usize, usize) {
        let pa = self.alloc_port(a);
        let pb = self.alloc_port(b);
        self.connect_switches(a, pa, b, pb, cfg);
        (pa, pb)
    }

    /// Attaches an endpoint to `port` of `sw`. `rx_sink` receives the
    /// cells the network delivers to this endpoint; the returned id's
    /// transmit link is obtained with [`Network::endpoint_tx`].
    pub fn add_endpoint(
        &mut self,
        sw: SwitchId,
        port: usize,
        cfg: LinkConfig,
        rx_sink: SinkRef,
    ) -> EndpointId {
        let tx = Rc::new(RefCell::new(Link::new(
            cfg.rate_bps,
            cfg.prop_delay,
            input_port(&self.switches[sw.0], port),
        )));
        self.switches[sw.0]
            .borrow_mut()
            .attach_output(port, Link::new(cfg.rate_bps, cfg.prop_delay, rx_sink));
        let id = EndpointId(self.endpoints.len());
        self.used_ports[sw.0] = self.used_ports[sw.0].max(port + 1);
        self.endpoints.push(EndpointInfo {
            switch: sw.0,
            port,
            tx,
        });
        self.add_ledger(ReservationKey::EndpointTx(id.0), cfg.rate_bps);
        self.add_ledger(ReservationKey::SwitchOut(sw.0, port), cfg.rate_bps);
        id
    }

    /// Attaches an endpoint on an automatically allocated port of `sw`,
    /// growing the switch as needed — the bulk path scenario builders
    /// use to hang hundreds of devices off one fabric switch.
    pub fn add_endpoint_auto(
        &mut self,
        sw: SwitchId,
        cfg: LinkConfig,
        rx_sink: SinkRef,
    ) -> EndpointId {
        let port = self.alloc_port(sw);
        self.add_endpoint(sw, port, cfg, rx_sink)
    }

    /// The transmit link an endpoint uses to inject cells.
    pub fn endpoint_tx(&self, ep: EndpointId) -> Rc<RefCell<Link>> {
        self.endpoints[ep.0].tx.clone()
    }

    /// Number of endpoints attached.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// The fabric switch an endpoint hangs off — ownership of the
    /// endpoint in a sharded run follows this switch.
    pub fn endpoint_switch(&self, ep: EndpointId) -> SwitchId {
        SwitchId(self.endpoints[ep.0].switch)
    }

    /// The port of its switch an endpoint is attached on.
    pub fn endpoint_port(&self, ep: EndpointId) -> usize {
        self.endpoints[ep.0].port
    }

    /// Every inter-switch link direction, in wiring order. The shard
    /// partitioner reads this to find cut links (trunks whose two ends
    /// land in different shards) and to compute the conservative
    /// lookahead window (min over cut trunks of cell time + propagation
    /// delay).
    pub fn trunks(&self) -> &[TrunkDir] {
        &self.trunks
    }

    /// Runs `f` on the output link at `port` of switch `sw` — the
    /// sharded executor's hook for redirecting a cut trunk's transmit
    /// side into an export buffer ([`Link::set_export`]) and for
    /// injecting sealed cells into the receiving replica
    /// ([`Link::inject`]).
    ///
    /// # Panics
    ///
    /// Panics if the port is unwired.
    pub fn with_switch_output<R>(
        &self,
        sw: usize,
        port: usize,
        f: impl FnOnce(&mut Link) -> R,
    ) -> R {
        let mut guard = self.switches[sw].borrow_mut();
        f(guard.output_mut(port).expect("trunk port wired"))
    }

    fn alloc_vci(&mut self) -> Vci {
        let v = self.next_vci;
        self.next_vci = self.next_vci.checked_add(1).expect("VCI space exhausted");
        v
    }

    /// Human-readable identity of a reservation key, for admission
    /// errors.
    fn key_name(&self, key: ReservationKey) -> String {
        match key {
            ReservationKey::EndpointTx(e) => format!("ep{e}:tx"),
            ReservationKey::SwitchOut(s, p) => {
                format!("{}:{p}", self.switches[s].borrow().name())
            }
        }
    }

    /// Gives the link behind `key` a fresh, empty ledger. Re-wiring an
    /// occupied port displaces a ledger that may have been the fullest.
    fn add_ledger(&mut self, key: ReservationKey, rate_bps: u64) {
        let ac = AdmissionController::new(rate_bps, RESERVABLE_FRACTION);
        if self.acs.insert(key, ac).is_some() {
            self.max_util.set(None);
        }
    }

    /// The room a guaranteed reservation has on the link behind `key`.
    fn room(&self, key: ReservationKey) -> u64 {
        let ledger = self.acs.get(&key);
        ledger.map_or(0, AdmissionController::available_bps)
    }

    /// The one admission test, and it only reads: charges `wants` in
    /// order to a running sum per ledger, each capped at `room(key)`,
    /// and names the first want that would overflow its ledger, with
    /// the room that ledger had left. Every amount is non-negative, so
    /// the sums fit exactly when reserving the wants one by one would:
    /// this is that sequential verdict without its writes.
    fn check_ledgers(
        &self,
        wants: impl IntoIterator<Item = (ReservationKey, u64)>,
        room: impl Fn(ReservationKey) -> u64,
    ) -> Result<(), AdmissionError> {
        let mut sums = HashMap::new();
        for (key, bps) in wants {
            let sum = sums.entry(key).or_insert(0);
            let available = room(key).saturating_sub(*sum);
            if bps > available {
                return Err(AdmissionError::InsufficientBandwidth {
                    link: self.key_name(key),
                    requested: bps,
                    available,
                });
            }
            *sum += bps;
        }
        Ok(())
    }

    /// Charges `bps` to the link behind `key`, which a check found room
    /// on — with [`Network::release_on`], the only place a reservation
    /// changes, so the only place the running maximum has to follow.
    fn charge(&mut self, key: ReservationKey, bps: u64) {
        if let Some(ac) = self.acs.get_mut(&key) {
            ac.charge(bps);
            // The same quotient the fold computes: a link only fills
            // here, so max-ing it in keeps the copy exact.
            let now = utilization(ac);
            self.max_util.set(self.max_util.get().map(|m| m.max(now)));
        }
    }

    /// Releases `bps` on the link behind `key`. A circuit that outlived
    /// a re-wired port names a ledger that never knew it;
    /// [`AdmissionController::release`] saturates.
    fn release_on(&mut self, key: ReservationKey, bps: u64) {
        let Some(ac) = self.acs.get_mut(&key) else {
            return;
        };
        if self.max_util.get() == Some(utilization(ac)) {
            // The fullest link is draining; which link is next is only
            // known to the fold.
            self.max_util.set(None);
        }
        ac.release(bps);
    }

    /// Breadth-first path of (switch, out-port) hops from `src` switch to
    /// `dst` switch; empty when `src == dst`.
    fn bfs_path(&self, src: usize, dst: usize) -> Option<Vec<(usize, usize)>> {
        if src == dst {
            return Some(Vec::new());
        }
        let mut prev: HashMap<usize, (usize, usize)> = HashMap::new(); // node -> (from, via port)
        let mut queue = VecDeque::from([src]);
        while let Some(node) = queue.pop_front() {
            for &(port, peer) in &self.adj[node] {
                if peer != src && !prev.contains_key(&peer) {
                    prev.insert(peer, (node, port));
                    if peer == dst {
                        // Reconstruct.
                        let mut hops = Vec::new();
                        let mut cur = dst;
                        while cur != src {
                            let (from, port) = prev[&cur];
                            hops.push((from, port));
                            cur = from;
                        }
                        hops.reverse();
                        return Some(hops);
                    }
                    queue.push_back(peer);
                }
            }
        }
        None
    }

    /// Routes one flow between two ends and lists what it would
    /// reserve, in reservation order: the source's transmit link, every
    /// inter-switch hop, the final delivery link — nothing for best
    /// effort. An end is an attached endpoint, or the pending one its id
    /// names, at the `(switch, port)` `pending` gives it. Changes
    /// nothing.
    fn plan_vc(
        &self,
        src: EndpointId,
        dst: EndpointId,
        qos: QosSpec,
        pending: &[(usize, usize)],
    ) -> Result<VcPlan, AdmissionError> {
        let end_at = |ep: EndpointId| match self.endpoints.get(ep.0) {
            Some(info) => Some((info.switch, info.port)),
            None => pending.get(ep.0 - self.endpoints.len()).copied(),
        };
        let (Some((src_sw, _)), Some((dst_sw, dst_port))) = (end_at(src), end_at(dst)) else {
            return Err(AdmissionError::UnknownEndpoint);
        };
        if self.dead[src_sw] || self.dead[dst_sw] {
            // A dead switch strands its endpoints: same-switch pairs
            // would otherwise route through zero hops and never consult
            // the (emptied) adjacency.
            return Err(AdmissionError::NoRoute);
        }
        let hops = self
            .bfs_path(src_sw, dst_sw)
            .ok_or(AdmissionError::NoRoute)?;
        let mut reservations = Vec::new();
        if qos.class == ServiceClass::Guaranteed {
            reservations.push((ReservationKey::EndpointTx(src.0), qos.peak_bps));
            reservations.extend(
                hops.iter()
                    .map(|&(sw, port)| (ReservationKey::SwitchOut(sw, port), qos.peak_bps)),
            );
            reservations.push((ReservationKey::SwitchOut(dst_sw, dst_port), qos.peak_bps));
        }
        Ok((hops, reservations))
    }

    /// Decides a set of virtual circuits as one call setup, and changes
    /// nothing: the plan [`Network::commit_vcs`] opens, or why the set
    /// is refused.
    ///
    /// A flow runs between ends that are attached or `pending`. Each
    /// pending end is placed where attaching it now would put it — its
    /// switch's next unused port, after the pending ends before it on
    /// the same switch — with two fresh ledgers, whose room is the whole
    /// reservable rate of its link. Every flow is routed, then every
    /// [`ServiceClass::Guaranteed`] flow's peak bandwidth is counted
    /// against its source's transmit link, every inter-switch hop and
    /// the final delivery link — flows sharing a link are counted
    /// together, so a video and an audio stream between the same two
    /// sites are admitted jointly.
    pub fn check_vcs(
        &self,
        pending: &[PendingEnd],
        flows: &[(EndpointId, EndpointId, QosSpec)],
    ) -> Result<VcsPlan, AdmissionError> {
        let attached = self.endpoints.len();
        let (mut at, mut fresh) = (Vec::new(), HashMap::new());
        for (k, &(sw, cfg)) in pending.iter().enumerate() {
            let port = self.used_ports[sw.0] + at.iter().filter(|&&(s, _)| s == sw.0).count();
            let room = AdmissionController::new(cfg.rate_bps, RESERVABLE_FRACTION);
            let room = room.available_bps();
            fresh.insert(ReservationKey::EndpointTx(attached + k), room);
            fresh.insert(ReservationKey::SwitchOut(sw.0, port), room);
            at.push((sw.0, port));
        }
        let flows = flows
            .iter()
            .map(|&(src, dst, qos)| Ok(((src, dst, qos), self.plan_vc(src, dst, qos, &at)?)))
            .collect::<Result<Vec<_>, _>>()?;
        let wants = flows.iter().flat_map(|(_, (_, r))| r.iter().copied());
        self.check_ledgers(wants, |key| {
            fresh.get(&key).copied().unwrap_or_else(|| self.room(key))
        })?;
        let pending = pending.to_vec();
        Ok(VcsPlan { pending, flows })
    }

    /// Opens a flow set [`Network::check_vcs`] admitted: attaches its
    /// pending ends in order, each fed by the next of `sinks` (one per
    /// pending end), then charges every reservation and installs the
    /// circuits, flow by flow in request order. Cannot fail: the check
    /// found room for all of it.
    pub fn commit_vcs(&mut self, plan: VcsPlan, sinks: Vec<SinkRef>) -> Vec<VcHandle> {
        for (&(sw, cfg), sink) in plan.pending.iter().zip(sinks) {
            self.add_endpoint_auto(sw, cfg, sink);
        }
        let mut vcs = Vec::with_capacity(plan.flows.len());
        for ((src, dst, qos), (hops, wants)) in plan.flows {
            vcs.push(self.install_vc(src, dst, qos, &hops, wants, None));
        }
        vcs
    }

    /// Opens one virtual circuit from `src` to `dst` with the requested
    /// QoS: the one-flow case of [`Network::check_vcs`] then
    /// [`Network::commit_vcs`]. Fails without side effects if any hop
    /// lacks capacity.
    pub fn open_vc(
        &mut self,
        src: EndpointId,
        dst: EndpointId,
        qos: QosSpec,
    ) -> Result<VcHandle, AdmissionError> {
        let (hops, reservations) = self.plan_vc(src, dst, qos, &[])?;
        self.check_ledgers(reservations.iter().copied(), |key| self.room(key))?;
        Ok(self.install_vc(src, dst, qos, &hops, reservations, None))
    }

    /// Charges a checked circuit's reservations, allocates its VCIs and
    /// installs its routes. `pin` reuses the two endpoint-segment VCIs
    /// instead of allocating them: re-routing a live circuit around a
    /// dead switch pins them so neither endpoint has to be reconfigured
    /// — only the interior hops change.
    fn install_vc(
        &mut self,
        src: EndpointId,
        dst: EndpointId,
        qos: QosSpec,
        hops: &[(usize, usize)],
        reservations: Vec<(ReservationKey, u64)>,
        pin: Option<(Vci, Vci)>,
    ) -> VcHandle {
        for &(key, bps) in &reservations {
            self.charge(key, bps);
        }
        let (src_sw, src_port) = (self.endpoints[src.0].switch, self.endpoints[src.0].port);
        let dst_port = self.endpoints[dst.0].port;

        // Allocate one VCI per link segment: endpoint→sw_src, each
        // inter-switch hop, and the delivery segment. Pinned endpoint
        // VCIs (re-route) are reused verbatim; interior hops are always
        // fresh so a new path never collides with remnants of the old.
        let nsegs = hops.len() + 2;
        let mut vcis: Vec<Vci> = Vec::with_capacity(nsegs);
        for i in 0..nsegs {
            let pinned = match pin {
                Some((s, _)) if i == 0 => Some(s),
                Some((_, d)) if i == nsegs - 1 => Some(d),
                _ => None,
            };
            vcis.push(pinned.unwrap_or_else(|| self.alloc_vci()));
        }

        // Install routes. The switch path is src_sw, then the peer of each
        // hop. The in-port at src_sw is the endpoint port; at subsequent
        // switches it is the port of the reverse link, which by our
        // bidirectional wiring is the same-numbered port on the peer.
        let mut route = Vec::new();
        let mut in_port = src_port;
        let mut cur_sw = src_sw;
        for (i, &(sw, out_port)) in hops.iter().enumerate() {
            debug_assert_eq!(sw, cur_sw);
            self.switches[sw]
                .borrow_mut()
                .add_route(in_port, vcis[i], out_port, vcis[i + 1]);
            route.push((sw, in_port, vcis[i]));
            // Find the peer and the port the reverse link occupies there.
            let peer = self.adj[sw]
                .iter()
                .find(|&&(p, _)| p == out_port)
                .map(|&(_, peer)| peer)
                .expect("adjacency consistent");
            let peer_port = self.adj[peer]
                .iter()
                .find(|&&(_, q)| q == sw)
                .map(|&(p, _)| p)
                .expect("reverse adjacency consistent");
            cur_sw = peer;
            in_port = peer_port;
        }
        // Final switch: route to the destination endpoint's port.
        self.switches[cur_sw].borrow_mut().add_route(
            in_port,
            vcis[nsegs - 2],
            dst_port,
            vcis[nsegs - 1],
        );
        route.push((cur_sw, in_port, vcis[nsegs - 2]));

        let id = self.next_conn;
        self.next_conn += 1;
        VcHandle {
            id,
            src_vci: vcis[0],
            dst_vci: vcis[nsegs - 1],
            qos,
            route,
            reservations,
            src,
            dst,
        }
    }

    /// Re-sizes live circuits in place as one transaction, `vcs[i]` to
    /// `new_bps[i]`. Routes and VCIs are untouched (cells in flight are
    /// unaffected); only the ledger entries change, on exactly the keys
    /// each circuit's admission reserved. What the set grows by is
    /// checked first, against the room its links have now, and the
    /// resize applied only if it fits: a refusal changes nothing, and a
    /// set that only shrinks always fits. Best-effort circuits reserve
    /// nothing; only the rate on their handle changes.
    pub fn resize_vcs(
        &mut self,
        vcs: &mut [VcHandle],
        new_bps: &[u64],
    ) -> Result<(), AdmissionError> {
        let growth = vcs.iter().zip(new_bps).flat_map(|(vc, &bps)| {
            let grown = bps.saturating_sub(vc.qos.peak_bps);
            vc.reservations.iter().map(move |&(key, _)| (key, grown))
        });
        self.check_ledgers(growth, |key| self.room(key))?;
        for (vc, &bps) in vcs.iter_mut().zip(new_bps) {
            for (key, reserved) in &mut vc.reservations {
                self.release_on(*key, *reserved);
                self.charge(*key, bps);
                *reserved = bps;
            }
            vc.qos.peak_bps = bps;
        }
        Ok(())
    }

    /// Tears down a virtual circuit, removing routes and releasing
    /// reservations.
    pub fn close_vc(&mut self, vc: VcHandle) {
        for (sw, in_port, in_vci) in vc.route {
            self.switches[sw].borrow_mut().remove_route(in_port, in_vci);
        }
        for (key, bps) in vc.reservations {
            self.release_on(key, bps);
        }
    }

    /// Kills a fabric switch: its translation table is wiped (cells
    /// already crossing it drop as unroutable), every adjacency touching
    /// it is removed so signalling routes around the corpse, and any
    /// endpoint attached to it is stranded until further notice.
    ///
    /// Live circuits are *not* touched — the caller walks its open
    /// [`VcHandle`]s and calls [`Network::reroute_vc`] on each one that
    /// [`VcHandle::crosses_switch`] reports affected.
    pub fn fail_switch(&mut self, sw: SwitchId) {
        self.dead[sw.0] = true;
        self.switches[sw.0].borrow_mut().clear_routes();
        self.adj[sw.0].clear();
        for peers in &mut self.adj {
            peers.retain(|&(_, peer)| peer != sw.0);
        }
    }

    /// Whether [`Network::fail_switch`] has killed `sw`.
    pub fn switch_is_dead(&self, sw: SwitchId) -> bool {
        self.dead[sw.0]
    }

    /// Re-routes a live circuit over the surviving topology — the
    /// signalling half of switch-failure recovery.
    ///
    /// The old circuit is always torn down (routes removed, reservations
    /// released). On success the replacement keeps the original
    /// endpoint-segment VCIs, so the transmitting and receiving devices
    /// keep working unmodified; only interior hops change. When no
    /// alternate path or capacity exists the circuit stays closed and
    /// the error says why — the caller decides whether that strands a
    /// session or triggers renegotiation.
    pub fn reroute_vc(&mut self, vc: VcHandle) -> Result<VcHandle, AdmissionError> {
        let (src, dst, qos) = (vc.src, vc.dst, vc.qos);
        let pin = (vc.src_vci, vc.dst_vci);
        self.close_vc(vc);
        let (hops, reservations) = self.plan_vc(src, dst, qos, &[])?;
        self.check_ledgers(reservations.iter().copied(), |key| self.room(key))?;
        Ok(self.install_vc(src, dst, qos, &hops, reservations, Some(pin)))
    }

    /// Remaining guaranteed bandwidth on an endpoint's transmit link.
    pub fn endpoint_tx_available(&self, ep: EndpointId) -> u64 {
        self.room(ReservationKey::EndpointTx(ep.0))
    }

    /// The most heavily reserved link in the network, as a fraction of
    /// its raw line rate. Admission control caps this at
    /// [`RESERVABLE_FRACTION`]; topology property tests assert
    /// the invariant from the outside.
    ///
    /// Constant time while reservations only grow: the network carries
    /// the figure along with every reservation and folds over the links
    /// again only after a release may have lowered it.
    pub fn max_reservation_utilization(&self) -> f64 {
        match self.max_util.get() {
            Some(m) => m,
            None => {
                let m = self.fold_utilization();
                self.max_util.set(Some(m));
                m
            }
        }
    }

    /// The definition of [`Network::max_reservation_utilization`]: a
    /// fold over every link's ledger.
    fn fold_utilization(&self) -> f64 {
        self.acs.values().map(utilization).fold(0.0, f64::max)
    }

    /// Checks the ledgers against what they describe. The ledger map
    /// must hold exactly one ledger per link — a transmit ledger per
    /// attached endpoint, an output ledger per wired switch port, no
    /// orphan and none missing
    /// ([`LedgerDrift::Unmatched`]) — and the remembered fullest-link
    /// figure must equal a fresh fold over them, bit for bit
    /// ([`LedgerDrift::Maximum`]). A remembered value is a claim, not a
    /// fact: every scenario run and every hostile-harness step
    /// re-checks it here.
    pub fn audit_reservations(&self) -> Result<(), LedgerDrift> {
        let orphans = self
            .acs
            .keys()
            .filter(|&&key| match key {
                ReservationKey::EndpointTx(e) => e >= self.endpoints.len(),
                ReservationKey::SwitchOut(s, p) => !self
                    .switches
                    .get(s)
                    .is_some_and(|sw| sw.borrow().is_wired(p)),
            })
            .count();
        let links = self.endpoints.len()
            + self
                .switches
                .iter()
                .map(|sw| sw.borrow().wired_ports())
                .sum::<usize>();
        // Matched ledgers name distinct live links, so they never
        // outnumber them.
        let missing = links - (self.acs.len() - orphans);
        if orphans + missing > 0 {
            return Err(LedgerDrift::Unmatched { orphans, missing });
        }
        let folded = self.fold_utilization();
        match self.max_util.get() {
            Some(remembered) if remembered.to_bits() != folded.to_bits() => {
                Err(LedgerDrift::Maximum { remembered, folded })
            }
            _ => Ok(()),
        }
    }

    /// Whether a route exists between every pair of switches.
    pub fn is_connected(&self) -> bool {
        let n = self.switches.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut queue = VecDeque::from([0usize]);
        let mut count = 1;
        while let Some(node) = queue.pop_front() {
            for &(_, peer) in &self.adj[node] {
                if !seen[peer] {
                    seen[peer] = true;
                    count += 1;
                    queue.push_back(peer);
                }
            }
        }
        count == n
    }
}

/// One link's reserved share of its raw line rate.
fn utilization(ac: &AdmissionController) -> f64 {
    ac.reserved_bps() as f64 / ac.capacity_bps() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::link::CaptureSink;
    use pegasus_sim::Simulator;

    /// Two workstations, each an edge switch with camera/display
    /// endpoints, joined by a backbone link — the Figure 4 shape.
    fn two_site_net() -> (Network, EndpointId, EndpointId, Rc<RefCell<CaptureSink>>) {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let sw_a = net.add_switch("fairisle-a", 8, 500);
        let sw_b = net.add_switch("fairisle-b", 8, 500);
        net.connect_switches(sw_a, 0, sw_b, 0, cfg);
        let cam_sink = CaptureSink::shared(); // camera receives nothing
        let cam = net.add_endpoint(sw_a, 1, cfg, cam_sink);
        let disp_sink = CaptureSink::shared();
        let disp = net.add_endpoint(sw_b, 1, cfg, disp_sink.clone());
        (net, cam, disp, disp_sink)
    }

    #[test]
    fn vc_carries_cells_end_to_end() {
        let (mut net, cam, disp, disp_sink) = two_site_net();
        let vc = net
            .open_vc(cam, disp, QosSpec::guaranteed(10_000_000))
            .unwrap();
        let mut sim = Simulator::new();
        let tx = net.endpoint_tx(cam);
        for _ in 0..5 {
            tx.borrow_mut().send(&mut sim, Cell::new(vc.src_vci));
        }
        sim.run();
        let arr = &disp_sink.borrow().arrivals;
        assert_eq!(arr.len(), 5);
        for (_, c) in arr {
            assert_eq!(c.vci(), vc.dst_vci);
        }
        // 3 link traversals + 2 fabric latencies; first cell:
        // 3×(4240 + 1000) + 2×500 = 16720.
        assert_eq!(arr[0].0, 16_720);
    }

    #[test]
    fn same_switch_vc() {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let sw = net.add_switch("local", 4, 0);
        let a_sink = CaptureSink::shared();
        let a = net.add_endpoint(sw, 0, cfg, a_sink);
        let b_sink = CaptureSink::shared();
        let b = net.add_endpoint(sw, 1, cfg, b_sink.clone());
        let vc = net.open_vc(a, b, QosSpec::best_effort(0)).unwrap();
        let mut sim = Simulator::new();
        net.endpoint_tx(a)
            .borrow_mut()
            .send(&mut sim, Cell::new(vc.src_vci));
        sim.run();
        assert_eq!(b_sink.borrow().arrivals.len(), 1);
    }

    #[test]
    fn admission_control_refuses_oversubscription() {
        let (mut net, cam, disp, _) = two_site_net();
        // 95 Mbit/s reservable on the 100 Mbit/s backbone.
        let _vc1 = net
            .open_vc(cam, disp, QosSpec::guaranteed(60_000_000))
            .unwrap();
        let err = net
            .open_vc(cam, disp, QosSpec::guaranteed(60_000_000))
            .unwrap_err();
        assert!(matches!(err, AdmissionError::InsufficientBandwidth { .. }));
        // Best effort still admitted.
        net.open_vc(cam, disp, QosSpec::best_effort(60_000_000))
            .unwrap();
    }

    #[test]
    fn failed_admission_rolls_back() {
        let (mut net, cam, disp, _) = two_site_net();
        let before = net.endpoint_tx_available(cam);
        let _ = net
            .open_vc(cam, disp, QosSpec::guaranteed(99_000_000))
            .unwrap_err();
        assert_eq!(net.endpoint_tx_available(cam), before);
    }

    #[test]
    fn resize_vc_moves_the_ledgers_and_rolls_back() {
        let (mut net, cam, disp, disp_sink) = two_site_net();
        let before = net.endpoint_tx_available(cam);
        let mut vc = net
            .open_vc(cam, disp, QosSpec::guaranteed(60_000_000))
            .unwrap();
        let (src_vci, dst_vci) = (vc.src_vci, vc.dst_vci);

        // Down: frees headroom; routes and VCIs untouched, traffic flows.
        net.resize_vcs(std::slice::from_mut(&mut vc), &[30_000_000])
            .unwrap();
        assert_eq!(net.endpoint_tx_available(cam), before - 30_000_000);
        assert_eq!((vc.src_vci, vc.dst_vci), (src_vci, dst_vci));
        let mut sim = Simulator::new();
        net.endpoint_tx(cam)
            .borrow_mut()
            .send(&mut sim, Cell::new(vc.src_vci));
        sim.run();
        assert_eq!(disp_sink.borrow().arrivals.len(), 1);

        // Up past what a second circuit now holds: fails, old rate kept.
        let other = net
            .open_vc(cam, disp, QosSpec::guaranteed(50_000_000))
            .unwrap();
        let err = net
            .resize_vcs(std::slice::from_mut(&mut vc), &[60_000_000])
            .unwrap_err();
        assert!(matches!(err, AdmissionError::InsufficientBandwidth { .. }));
        assert_eq!(
            vc.qos.peak_bps, 30_000_000,
            "failed resize kept the old rate"
        );
        assert_eq!(net.endpoint_tx_available(cam), before - 80_000_000);

        // Back up once the contender is gone: original rate restores.
        net.close_vc(other);
        net.resize_vcs(std::slice::from_mut(&mut vc), &[60_000_000])
            .unwrap();
        assert_eq!(net.endpoint_tx_available(cam), before - 60_000_000);
        net.close_vc(vc);
        assert_eq!(
            net.endpoint_tx_available(cam),
            before,
            "no leak after resizes"
        );
    }

    #[test]
    fn vcis_cover_every_hop_label() {
        let (mut net, cam, disp, _) = two_site_net();
        let vc = net
            .open_vc(cam, disp, QosSpec::guaranteed(10_000_000))
            .unwrap();
        let vcis: Vec<Vci> = vc.vcis().collect();
        // Two switches: endpoint segment, inter-switch hop, delivery.
        assert_eq!(vcis.len(), 3);
        assert!(vcis.contains(&vc.src_vci));
        assert!(vcis.contains(&vc.dst_vci));
    }

    #[test]
    fn close_vc_releases_and_stops_traffic() {
        let (mut net, cam, disp, disp_sink) = two_site_net();
        let vc = net
            .open_vc(cam, disp, QosSpec::guaranteed(90_000_000))
            .unwrap();
        let src_vci = vc.src_vci;
        net.close_vc(vc);
        // Bandwidth is back.
        net.open_vc(cam, disp, QosSpec::guaranteed(90_000_000))
            .unwrap();
        // Cells on the old VCI are now unroutable.
        let mut sim = Simulator::new();
        net.endpoint_tx(cam)
            .borrow_mut()
            .send(&mut sim, Cell::new(src_vci));
        sim.run();
        assert_eq!(disp_sink.borrow().arrivals.len(), 0);
    }

    #[test]
    fn switch_death_reroutes_over_surviving_ring() {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let ring = net.build_topology(TopologyShape::Ring, 4, "r", 4, 0, cfg);
        let a = net.add_endpoint_auto(ring[0], cfg, CaptureSink::shared());
        let b_sink = CaptureSink::shared();
        let b = net.add_endpoint_auto(ring[2], cfg, b_sink.clone());
        let vc = net.open_vc(a, b, QosSpec::guaranteed(10_000_000)).unwrap();
        // BFS found some two-hop path; kill the transit switch it chose.
        let transit = if vc.crosses_switch(ring[1]) {
            ring[1]
        } else {
            ring[3]
        };
        net.fail_switch(transit);
        assert!(net.switch_is_dead(transit));
        let (src_vci, dst_vci) = (vc.src_vci, vc.dst_vci);
        let vc = net.reroute_vc(vc).expect("ring survives one death");
        assert_eq!(vc.src_vci, src_vci, "sender keeps its VCI");
        assert_eq!(vc.dst_vci, dst_vci, "receiver keeps its VCI");
        assert!(!vc.crosses_switch(transit), "new path avoids the corpse");
        let mut sim = Simulator::new();
        net.endpoint_tx(a)
            .borrow_mut()
            .send(&mut sim, Cell::new(vc.src_vci));
        sim.run();
        let arr = &b_sink.borrow().arrivals;
        assert_eq!(arr.len(), 1, "traffic flows around the dead switch");
        assert_eq!(arr[0].1.vci(), dst_vci);
    }

    #[test]
    fn endpoint_on_dead_switch_is_stranded() {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let ring = net.build_topology(TopologyShape::Ring, 3, "r", 4, 0, cfg);
        let a = net.add_endpoint_auto(ring[0], cfg, CaptureSink::shared());
        let b = net.add_endpoint_auto(ring[1], cfg, CaptureSink::shared());
        let before = net.endpoint_tx_available(a);
        let vc = net.open_vc(a, b, QosSpec::guaranteed(10_000_000)).unwrap();
        net.fail_switch(ring[1]);
        assert_eq!(
            net.reroute_vc(vc).unwrap_err(),
            AdmissionError::NoRoute,
            "no alternate attach point exists"
        );
        // The failed reroute still released the old reservations.
        assert_eq!(net.endpoint_tx_available(a), before);
        // Fresh circuits to or on the dead switch are refused, even
        // same-switch pairs that need no inter-switch hop.
        let c = net.add_endpoint_auto(ring[1], cfg, CaptureSink::shared());
        assert_eq!(
            net.open_vc(b, c, QosSpec::best_effort(0)).unwrap_err(),
            AdmissionError::NoRoute
        );
    }

    #[test]
    fn no_route_between_disconnected_islands() {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let sw_a = net.add_switch("a", 2, 0);
        let sw_b = net.add_switch("b", 2, 0);
        let a = net.add_endpoint(sw_a, 0, cfg, CaptureSink::shared());
        let b = net.add_endpoint(sw_b, 0, cfg, CaptureSink::shared());
        assert_eq!(
            net.open_vc(a, b, QosSpec::best_effort(0)).unwrap_err(),
            AdmissionError::NoRoute
        );
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let sw = net.add_switch("a", 2, 0);
        let a = net.add_endpoint(sw, 0, cfg, CaptureSink::shared());
        let bogus = EndpointId(42);
        assert_eq!(
            net.open_vc(a, bogus, QosSpec::best_effort(0)).unwrap_err(),
            AdmissionError::UnknownEndpoint
        );
    }

    #[test]
    fn multi_hop_routing_three_switches() {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let s0 = net.add_switch("s0", 4, 0);
        let s1 = net.add_switch("s1", 4, 0);
        let s2 = net.add_switch("s2", 4, 0);
        net.connect_switches(s0, 0, s1, 0, cfg);
        net.connect_switches(s1, 1, s2, 0, cfg);
        let a = net.add_endpoint(s0, 2, cfg, CaptureSink::shared());
        let sink = CaptureSink::shared();
        let b = net.add_endpoint(s2, 2, cfg, sink.clone());
        let vc = net.open_vc(a, b, QosSpec::guaranteed(1_000_000)).unwrap();
        let mut sim = Simulator::new();
        net.endpoint_tx(a)
            .borrow_mut()
            .send(&mut sim, Cell::new(vc.src_vci));
        sim.run();
        assert_eq!(sink.borrow().arrivals.len(), 1);
        assert_eq!(sink.borrow().arrivals[0].1.vci(), vc.dst_vci);
    }

    #[test]
    fn dropping_the_network_frees_the_fabric() {
        // A ring of trunks is a cycle of `Rc`s — switch, output link,
        // the neighbour's input port, the neighbour — and a receiver
        // hangs off it. After traffic has crossed, dropping the network
        // must free every switch and the receiver with them.
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let ids = net.build_topology(TopologyShape::Ring, 3, "ring", 4, 100, cfg);
        let sink = CaptureSink::shared();
        let a = net.add_endpoint_auto(ids[0], cfg, CaptureSink::shared());
        let b = net.add_endpoint_auto(ids[2], cfg, sink.clone());
        let vc = net.open_vc(a, b, QosSpec::best_effort(0)).unwrap();
        let mut sim = Simulator::new();
        net.endpoint_tx(a)
            .borrow_mut()
            .send(&mut sim, Cell::new(vc.src_vci));
        sim.run();
        assert_eq!(sink.borrow().arrivals.len(), 1);

        let switches: Vec<_> = ids
            .iter()
            .map(|&id| Rc::downgrade(net.switch(id)))
            .collect();
        let receiver = Rc::downgrade(&sink);
        drop(sink);
        assert!(
            receiver.upgrade().is_some(),
            "the fabric holds its receivers"
        );
        drop(net);
        assert!(switches.iter().all(|sw| sw.upgrade().is_none()));
        assert!(receiver.upgrade().is_none());
    }

    #[test]
    fn topology_shapes_are_connected_and_route() {
        for shape in [
            TopologyShape::Star,
            TopologyShape::Ring,
            TopologyShape::FullMesh,
        ] {
            for n in [1usize, 2, 3, 5, 8] {
                let mut net = Network::new();
                let cfg = LinkConfig::pegasus_default();
                let ids = net.build_topology(shape, n, "fab", 4, 100, cfg);
                assert_eq!(ids.len(), n);
                assert!(net.is_connected(), "{shape:?} n={n} must be connected");
                // An endpoint on every switch can reach one on the last.
                let sink = CaptureSink::shared();
                let dst = net.add_endpoint_auto(ids[n - 1], cfg, sink.clone());
                let mut sim = Simulator::new();
                let mut expected = 0;
                for &sw in &ids[..n - 1] {
                    let src = net.add_endpoint_auto(sw, cfg, CaptureSink::shared());
                    let vc = net.open_vc(src, dst, QosSpec::best_effort(0)).unwrap();
                    net.endpoint_tx(src)
                        .borrow_mut()
                        .send(&mut sim, Cell::new(vc.src_vci));
                    expected += 1;
                }
                sim.run();
                assert_eq!(sink.borrow().arrivals.len(), expected, "{shape:?} n={n}");
            }
        }
    }

    #[test]
    fn auto_ports_grow_past_declared_size() {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let sw = net.add_switch("tiny", 2, 0);
        let sink = CaptureSink::shared();
        let eps: Vec<EndpointId> = (0..6)
            .map(|_| net.add_endpoint_auto(sw, cfg, sink.clone()))
            .collect();
        assert_eq!(net.switch(sw).borrow().ports(), 6);
        let vc = net
            .open_vc(eps[0], eps[5], QosSpec::best_effort(0))
            .unwrap();
        let mut sim = Simulator::new();
        net.endpoint_tx(eps[0])
            .borrow_mut()
            .send(&mut sim, Cell::new(vc.src_vci));
        sim.run();
        assert_eq!(sink.borrow().arrivals.len(), 1);
    }

    #[test]
    fn auto_ports_skip_explicitly_wired_ones() {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let a = net.add_switch("a", 8, 0);
        let b = net.add_switch("b", 8, 0);
        net.connect_switches(a, 3, b, 0, cfg);
        // The allocator must not hand out a port at or below 3 on `a`.
        let ep = net.add_endpoint_auto(a, cfg, CaptureSink::shared());
        assert_eq!(net.endpoints[ep.0].port, 4);
    }

    #[test]
    fn reservation_utilization_tracks_admissions() {
        let (mut net, cam, disp, _) = two_site_net();
        assert_eq!(net.max_reservation_utilization(), 0.0);
        let _vc = net
            .open_vc(cam, disp, QosSpec::guaranteed(50_000_000))
            .unwrap();
        let u = net.max_reservation_utilization();
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
        assert!(u <= RESERVABLE_FRACTION);
    }

    /// One switch, `n` endpoints on ports `0..n`.
    fn one_switch_net(n: usize) -> (Network, SwitchId, Vec<EndpointId>) {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let sw = net.add_switch("sw", n, 0);
        let eps = (0..n)
            .map(|p| net.add_endpoint(sw, p, cfg, CaptureSink::shared()))
            .collect();
        (net, sw, eps)
    }

    #[test]
    fn releasing_one_of_two_tied_fullest_links_keeps_the_maximum() {
        let (mut net, _, eps) = one_switch_net(4);
        let first = net
            .open_vc(eps[0], eps[1], QosSpec::guaranteed(50_000_000))
            .unwrap();
        let second = net
            .open_vc(eps[2], eps[3], QosSpec::guaranteed(50_000_000))
            .unwrap();
        assert_eq!(net.max_reservation_utilization(), 0.5);
        // Every link of `first` sits at the maximum; so does `second`.
        net.close_vc(first);
        net.audit_reservations().unwrap();
        assert_eq!(net.max_reservation_utilization(), 0.5);
        net.audit_reservations().unwrap();
        net.close_vc(second);
        assert_eq!(net.max_reservation_utilization(), 0.0);
        net.audit_reservations().unwrap();
    }

    #[test]
    fn a_refused_open_keeps_the_remembered_maximum() {
        let (mut net, _, eps) = one_switch_net(3);
        let _held = net
            .open_vc(eps[0], eps[2], QosSpec::guaranteed(60_000_000))
            .unwrap();
        assert_eq!(net.max_reservation_utilization(), 0.6);
        // 70 Mbit/s would fit eps[1]'s transmit link, making it the
        // fullest in the network, and is refused on the shared delivery
        // link. The check writes nothing, so the figure stays known.
        let err = open_vcs(
            &mut net,
            &[(eps[1], eps[2], QosSpec::guaranteed(70_000_000))],
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "link sw:2: requested 70000000 bit/s but only 35000000 available"
        );
        assert_eq!(
            net.max_util.get().map(f64::to_bits),
            Some(net.fold_utilization().to_bits())
        );
        net.audit_reservations().unwrap();
        assert_eq!(net.max_reservation_utilization(), 0.6);
    }

    #[test]
    fn rewiring_a_port_forgets_the_ledger_it_displaces() {
        let (mut net, sw, eps) = one_switch_net(3);
        let cfg = LinkConfig::pegasus_default();
        let a = net
            .open_vc(eps[0], eps[2], QosSpec::guaranteed(50_000_000))
            .unwrap();
        let b = net
            .open_vc(eps[1], eps[2], QosSpec::guaranteed(30_000_000))
            .unwrap();
        // The delivery link to eps[2] alone carries both circuits.
        assert_eq!(net.max_reservation_utilization(), 0.8);
        net.add_endpoint(sw, 2, cfg, CaptureSink::shared());
        net.audit_reservations().unwrap();
        assert_eq!(net.max_reservation_utilization(), 0.5);
        // The stale circuits release against a ledger that never knew
        // them; it saturates at empty.
        net.close_vc(a);
        net.close_vc(b);
        net.audit_reservations().unwrap();
        assert_eq!(net.max_reservation_utilization(), 0.0);
    }

    fn guaranteed(mbit: u64) -> QosSpec {
        QosSpec::guaranteed(mbit * 1_000_000)
    }

    /// Opens a flow set as one transaction, the way the broker does:
    /// check, then commit. A refused set leaves no trace.
    fn open_vcs(
        net: &mut Network,
        flows: &[(EndpointId, EndpointId, QosSpec)],
    ) -> Result<Vec<VcHandle>, AdmissionError> {
        let plan = net.check_vcs(&[], flows)?;
        Ok(net.commit_vcs(plan, Vec::new()))
    }

    #[test]
    fn open_vcs_checks_joint_feasibility_over_a_shared_hop() {
        let (mut net, cam, disp, _) = two_site_net();
        // Individually each flow fits the 95 Mbit/s reservable trunk;
        // jointly they do not — the second must see the first's share.
        let err = open_vcs(
            &mut net,
            &[(cam, disp, guaranteed(60)), (cam, disp, guaranteed(60))],
        )
        .unwrap_err();
        assert!(matches!(err, AdmissionError::InsufficientBandwidth { .. }));
        assert_eq!(net.max_reservation_utilization(), 0.0, "nothing kept");
        let vcs = open_vcs(
            &mut net,
            &[(cam, disp, guaranteed(50)), (cam, disp, guaranteed(40))],
        )
        .unwrap();
        assert_eq!(vcs.len(), 2);
        assert_eq!(net.max_reservation_utilization(), 0.9);
        // Request order: the set numbers as two sequential opens would.
        assert_eq!(
            (vcs[0].qos.peak_bps, vcs[1].qos.peak_bps),
            (50_000_000, 40_000_000)
        );
        assert!(vcs[0].id < vcs[1].id && vcs[0].dst_vci < vcs[1].src_vci);
    }

    #[test]
    fn open_vcs_reports_routes_and_endpoints_like_open_vc() {
        let mut net = Network::new();
        let cfg = LinkConfig::pegasus_default();
        let sw_a = net.add_switch("a", 2, 0);
        let sw_b = net.add_switch("b", 2, 0);
        let a = net.add_endpoint(sw_a, 0, cfg, CaptureSink::shared());
        let b = net.add_endpoint(sw_b, 0, cfg, CaptureSink::shared());
        // A routable first flow does not hide the second's error.
        assert_eq!(
            open_vcs(&mut net, &[(a, a, guaranteed(1)), (a, b, guaranteed(1))]).unwrap_err(),
            AdmissionError::NoRoute
        );
        assert_eq!(
            open_vcs(&mut net, &[(a, EndpointId(42), guaranteed(1))]).unwrap_err(),
            AdmissionError::UnknownEndpoint
        );
    }

    #[test]
    fn open_vcs_counts_existing_reservations() {
        let (mut net, cam, disp, _) = two_site_net();
        let _vc = net.open_vc(cam, disp, guaranteed(90)).unwrap();
        let err = open_vcs(&mut net, &[(cam, disp, guaranteed(10))]).unwrap_err();
        assert!(matches!(err, AdmissionError::InsufficientBandwidth { .. }));
        open_vcs(&mut net, &[(cam, disp, guaranteed(5))]).unwrap();
    }

    #[test]
    fn refused_set_leaves_numbering_and_every_ledger_as_found() {
        let (mut net, cam, disp, _) = two_site_net();
        let held = net.open_vc(cam, disp, guaranteed(30)).unwrap();
        let (vci, conn) = (net.next_vci, net.next_conn);
        let ledgers = |net: &Network| {
            let mut l: Vec<_> = net
                .acs
                .iter()
                .map(|(k, ac)| (format!("{k:?}"), ac.reserved_bps()))
                .collect();
            l.sort();
            l
        };
        let before = ledgers(&net);
        // The first flow and the best-effort one fit; the third is
        // refused on the trunk after its transmit link was charged.
        let set = [
            (cam, disp, guaranteed(40)),
            (disp, cam, QosSpec::best_effort(0)),
            (cam, disp, guaranteed(40)),
        ];
        open_vcs(&mut net, &set).unwrap_err();
        assert_eq!((net.next_vci, net.next_conn), (vci, conn));
        assert_eq!(ledgers(&net), before);
        net.audit_reservations().unwrap();
        assert_eq!(net.max_reservation_utilization(), 0.3);
        // The same refusal for a routing reason, found after a flow
        // that would have fitted.
        open_vcs(&mut net, &[set[0], (cam, EndpointId(42), guaranteed(1))]).unwrap_err();
        assert_eq!((net.next_vci, net.next_conn), (vci, conn));
        assert_eq!(ledgers(&net), before);
        // What comes next numbers as if the refusals never happened.
        let next = net.open_vc(cam, disp, guaranteed(40)).unwrap();
        assert_eq!((next.src_vci, next.id), (vci, conn));
        net.close_vc(next);
        net.close_vc(held);
        assert_eq!(net.max_reservation_utilization(), 0.0);
    }

    #[test]
    fn audit_finds_an_orphaned_ledger() {
        let (mut net, cam, _, _) = two_site_net();
        net.acs.remove(&ReservationKey::EndpointTx(cam.0));
        assert_eq!(
            net.audit_reservations(),
            Err(LedgerDrift::Unmatched {
                orphans: 0,
                missing: 1
            })
        );
        net.add_ledger(ReservationKey::EndpointTx(cam.0), 1);
        net.add_ledger(ReservationKey::EndpointTx(99), 1);
        assert_eq!(
            net.audit_reservations(),
            Err(LedgerDrift::Unmatched {
                orphans: 1,
                missing: 0
            })
        );
    }

    #[test]
    fn distinct_vcs_get_distinct_vcis() {
        let (mut net, cam, disp, _) = two_site_net();
        let v1 = net.open_vc(cam, disp, QosSpec::best_effort(0)).unwrap();
        let v2 = net.open_vc(cam, disp, QosSpec::best_effort(0)).unwrap();
        assert_ne!(v1.src_vci, v2.src_vci);
        assert_ne!(v1.dst_vci, v2.dst_vci);
        assert_ne!(v1.id, v2.id);
    }
}
