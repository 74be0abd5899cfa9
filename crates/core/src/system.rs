//! System topology: workstations, servers, and the backbone.
//!
//! Figure 1's end-system architecture: "a conventional workstation and
//! its network interface connected to an ATM switch. However, also
//! connected to the switch we see a camera device, a display device, an
//! audio device, and then the rest of the ATM network. ... the switch is
//! under control of the workstation." The host CPU owns a network
//! interface endpoint of its own; whether media data flows through it
//! (bus-attached baseline) or switch-to-switch (the DAN way) is the
//! difference experiment E4 measures via [`HostNic`]'s byte counter.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_atm::cell::Cell;
use pegasus_atm::link::{CellSink, Link, SinkRef};
use pegasus_atm::network::{EndpointId, LinkConfig, Network, SwitchId, TopologyShape};
use pegasus_devices::audio::{AudioConfig, AudioSink, AudioSource};
use pegasus_devices::camera::{Camera, CameraConfig};
use pegasus_devices::display::Display;
use pegasus_devices::video::{Scene, SyntheticVideo};
use pegasus_sim::Simulator;

/// The host CPU's network interface: any media cell delivered here was
/// touched by a processor, which is precisely what the DAN architecture
/// avoids. It can also re-transmit (the bus-attached forwarding path).
pub struct HostNic {
    /// Media payload bytes the CPU has had to handle.
    pub bytes_touched: u64,
    /// Cells handled.
    pub cells: u64,
    /// Optional forwarding: (re-stamped VCI, transmit link).
    pub forward: Option<(u16, Rc<RefCell<Link>>)>,
    /// Per-cell CPU cost of touching the data (copy in + copy out).
    pub per_cell_cpu: u64,
    /// Accumulated CPU time burned on forwarding.
    pub cpu_time: u64,
}

impl HostNic {
    /// Creates an idle NIC.
    pub fn shared() -> Rc<RefCell<HostNic>> {
        Rc::new(RefCell::new(HostNic {
            bytes_touched: 0,
            cells: 0,
            forward: None,
            per_cell_cpu: 2_000, // ~2 µs to receive, inspect and resend a cell
            cpu_time: 0,
        }))
    }
}

impl CellSink for HostNic {
    fn deliver(&mut self, sim: &mut Simulator, mut cell: Cell) {
        self.bytes_touched += cell.payload().len() as u64;
        self.cells += 1;
        self.cpu_time += self.per_cell_cpu;
        if let Some((vci, link)) = &self.forward {
            cell.set_vci(*vci);
            link.borrow_mut().send(sim, cell);
        }
    }
}

/// One multimedia workstation: a local switch with camera, display,
/// audio-in/out and host-NIC endpoints.
pub struct Workstation {
    /// Name for reports.
    pub name: String,
    /// The workstation's local switch.
    pub switch: SwitchId,
    /// Camera endpoint (device → network).
    pub camera_ep: EndpointId,
    /// Display endpoint (network → device).
    pub display_ep: EndpointId,
    /// Audio-source endpoint.
    pub audio_src_ep: EndpointId,
    /// Audio-sink endpoint.
    pub audio_sink_ep: EndpointId,
    /// Host CPU endpoint.
    pub host_ep: EndpointId,
    /// The display device.
    pub display: Rc<RefCell<Display>>,
    /// The audio play-out device.
    pub audio_sink: Rc<RefCell<AudioSink>>,
    /// The host network interface.
    pub host_nic: Rc<RefCell<HostNic>>,
}

/// Fluent constructor for a [`System`] — the one entry point for
/// fabric shape, switch count and link parameters.
///
/// ```
/// use pegasus::system::SystemBuilder;
/// use pegasus_atm::network::{LinkConfig, TopologyShape};
///
/// let sys = SystemBuilder::new()
///     .topology(TopologyShape::Ring, 4)
///     .link(LinkConfig::pegasus_default())
///     .build();
/// assert_eq!(sys.fabric.len(), 4);
/// ```
///
/// Devices then attach with [`System::device`] and come alive with
/// [`System::camera_on`] / [`System::audio_source_on`]; sessions go
/// through [`System::admit_session`].
pub struct SystemBuilder {
    shape: TopologyShape,
    switches: usize,
    link: LinkConfig,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemBuilder {
    /// Starts from the classic single-backbone shape on default links.
    pub fn new() -> Self {
        SystemBuilder {
            shape: TopologyShape::Star,
            switches: 1,
            link: LinkConfig::pegasus_default(),
        }
    }

    /// Sets the fabric shape and switch count.
    pub fn topology(mut self, shape: TopologyShape, switches: usize) -> Self {
        self.shape = shape;
        self.switches = switches;
        self
    }

    /// Sets the link parameters used for every trunk and endpoint link.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Wires the fabric and returns the assembled [`System`].
    pub fn build(self) -> System {
        let mut net = Network::new();
        let fabric = net.build_topology(self.shape, self.switches, "backbone", 16, 500, self.link);
        System {
            net,
            fabric,
            link: self.link,
            next_site: 0,
        }
    }
}

/// The whole Pegasus installation (Figure 4).
///
/// The default [`System::new`] is the classic single-backbone shape; a
/// scenario assembles larger installations with [`SystemBuilder`], then
/// hangs devices off the fabric with [`System::device`] — so city-scale
/// fabrics and hand-wired two-site experiments share one construction
/// path.
pub struct System {
    /// The ATM network.
    pub net: Network,
    /// The fabric switches joining sites; `fabric[0]` is the backbone of
    /// the single-switch default.
    pub fabric: Vec<SwitchId>,
    /// Link parameters used throughout.
    pub link: LinkConfig,
    /// Round-robin cursor for site placement.
    next_site: usize,
}

impl Default for System {
    fn default() -> Self {
        Self::new()
    }
}

impl System {
    /// Creates a system with an empty backbone switch.
    pub fn new() -> Self {
        SystemBuilder::new().build()
    }

    /// Starts a [`SystemBuilder`].
    pub fn builder() -> SystemBuilder {
        SystemBuilder::new()
    }

    /// Adds a multimedia workstation: local switch uplinked to the
    /// fabric (round-robin across fabric switches), with the full device
    /// complement attached.
    pub fn add_workstation(&mut self, name: &str, audio_jitter_buffer: usize) -> Workstation {
        let at = self.next_site % self.fabric.len();
        self.next_site += 1;
        self.add_workstation_at(at, name, audio_jitter_buffer)
    }

    /// Adds a workstation uplinked to fabric switch `fabric_idx`.
    pub fn add_workstation_at(
        &mut self,
        fabric_idx: usize,
        name: &str,
        audio_jitter_buffer: usize,
    ) -> Workstation {
        let up = self.fabric[fabric_idx];
        let sw = self.net.add_switch(&format!("{name}-fairisle"), 8, 500);
        self.net.connect_switches_auto(up, sw, self.link);

        // Camera transmits only; its receive side is a host-side stub.
        let camera_ep = self.net.add_endpoint(sw, 1, self.link, HostNic::shared());
        let display = Display::shared(640, 480);
        let display_ep = self.net.add_endpoint(sw, 2, self.link, display.clone());
        let audio_src_ep = self.net.add_endpoint(sw, 3, self.link, HostNic::shared());
        let audio_sink = AudioSink::shared(AudioConfig::telephony(), audio_jitter_buffer);
        let audio_sink_ep = self.net.add_endpoint(sw, 4, self.link, audio_sink.clone());
        let host_nic = HostNic::shared();
        let host_ep = self.net.add_endpoint(sw, 5, self.link, host_nic.clone());

        Workstation {
            name: name.to_string(),
            switch: sw,
            camera_ep,
            display_ep,
            audio_src_ep,
            audio_sink_ep,
            host_ep,
            display,
            audio_sink,
            host_nic,
        }
    }

    /// Adds a plain endpoint on the backbone (storage servers, compute
    /// servers, Unix nodes).
    pub fn add_backbone_endpoint(&mut self, sink: SinkRef) -> EndpointId {
        self.add_server_at(0, sink)
    }

    /// Adds a server endpoint behind its own edge switch on fabric
    /// switch `fabric_idx`.
    pub fn add_server_at(&mut self, fabric_idx: usize, sink: SinkRef) -> EndpointId {
        // A private edge switch would be equivalent; servers sit directly
        // on a backbone port here.
        let sw = self.net.add_switch("srv-edge", 2, 0);
        self.net
            .connect_switches_auto(self.fabric[fabric_idx], sw, self.link);
        self.net.add_endpoint(sw, 1, self.link, sink)
    }

    /// Attaches a bare device endpoint directly to fabric switch
    /// `fabric_idx` — the bulk path scenarios use to hang hundreds of
    /// cameras, displays and audio nodes off a city fabric without an
    /// edge switch per device. In a sharded run the endpoint is owned
    /// by whichever shard owns its fabric switch.
    pub fn device(&mut self, fabric_idx: usize, sink: SinkRef) -> EndpointId {
        self.net
            .add_endpoint_auto(self.fabric[fabric_idx], self.link, sink)
    }

    /// Builds a camera on `ws`, producing `scene` with `cfg`, stamped
    /// with the VCI of an already-opened connection.
    pub fn build_camera(
        &self,
        ws: &Workstation,
        scene: Scene,
        cfg: CameraConfig,
        vci: u16,
    ) -> Rc<RefCell<Camera>> {
        self.camera_on(ws.camera_ep, scene, cfg, vci)
    }

    /// Builds a camera transmitting from an arbitrary endpoint — the
    /// spec-driven path where the endpoint came from [`System::device`]
    /// rather than a [`Workstation`].
    pub fn camera_on(
        &self,
        ep: EndpointId,
        scene: Scene,
        cfg: CameraConfig,
        vci: u16,
    ) -> Rc<RefCell<Camera>> {
        let video = SyntheticVideo::qcif(scene);
        Camera::new(video, cfg, vci, self.net.endpoint_tx(ep))
    }

    /// Builds an audio source on `ws` for an already-opened connection.
    pub fn build_audio_source(&self, ws: &Workstation, vci: u16) -> Rc<RefCell<AudioSource>> {
        self.audio_source_on(ws.audio_src_ep, AudioConfig::telephony(), vci)
    }

    /// Builds an audio source transmitting from an arbitrary endpoint.
    pub fn audio_source_on(
        &self,
        ep: EndpointId,
        cfg: AudioConfig,
        vci: u16,
    ) -> Rc<RefCell<AudioSource>> {
        AudioSource::new(cfg, vci, self.net.endpoint_tx(ep))
    }

    /// Runs a session request through the QoS broker against this
    /// system's network: the broker checks its CPU and stream-slot
    /// ledgers plus every ATM hop the session's flows cross, then
    /// admits (opening the guaranteed VCs), admits degraded, or
    /// rejects. This is the one gate all spec-driven session setup goes
    /// through — see [`crate::broker`] for the contract model.
    pub fn admit_session(
        &mut self,
        broker: &mut crate::broker::QosBroker,
        req: &crate::broker::SessionRequest,
    ) -> crate::broker::SessionGrant {
        broker.admit(&mut self.net, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_atm::signalling::QosSpec;
    use pegasus_devices::display::Rect;
    use pegasus_devices::display::WindowManager;
    use pegasus_sim::time::MS;

    #[test]
    fn workstations_join_the_backbone() {
        let mut sys = System::new();
        let a = sys.add_workstation("a", 40);
        let b = sys.add_workstation("b", 40);
        // Camera on A can reach display on B.
        let vc = sys
            .net
            .open_vc(a.camera_ep, b.display_ep, QosSpec::guaranteed(10_000_000))
            .unwrap();
        assert_ne!(vc.src_vci, 0);
        assert_eq!(sys.net.endpoint_count(), 10);
    }

    #[test]
    fn camera_to_remote_display_paints_pixels_with_zero_cpu_bytes() {
        let mut sys = System::new();
        let a = sys.add_workstation("a", 40);
        let b = sys.add_workstation("b", 40);
        let vc = sys
            .net
            .open_vc(a.camera_ep, b.display_ep, QosSpec::guaranteed(20_000_000))
            .unwrap();
        let mut wm = WindowManager::new(b.display.clone(), 1);
        wm.create(vc.dst_vci, Rect::new(0, 0, 176, 144));
        let cam = sys.build_camera(
            &a,
            Scene::MovingGradient,
            CameraConfig::default(),
            vc.src_vci,
        );
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(100 * MS);
        cam.borrow_mut().stop();
        sim.run();
        let d = b.display.borrow();
        assert!(
            d.stats.tiles_blitted > 100,
            "blitted {}",
            d.stats.tiles_blitted
        );
        // The DAN property: no host CPU saw a single media byte.
        assert_eq!(a.host_nic.borrow().bytes_touched, 0);
        assert_eq!(b.host_nic.borrow().bytes_touched, 0);
    }

    #[test]
    fn host_nic_counts_and_forwards() {
        let mut sys = System::new();
        let a = sys.add_workstation("a", 40);
        let b = sys.add_workstation("b", 40);
        // Bus-attached path: camera → host A, host A forwards → display B.
        let vc_cam_host = sys
            .net
            .open_vc(a.camera_ep, a.host_ep, QosSpec::guaranteed(20_000_000))
            .unwrap();
        let vc_host_disp = sys
            .net
            .open_vc(a.host_ep, b.display_ep, QosSpec::guaranteed(20_000_000))
            .unwrap();
        a.host_nic.borrow_mut().forward =
            Some((vc_host_disp.src_vci, sys.net.endpoint_tx(a.host_ep)));
        let mut wm = WindowManager::new(b.display.clone(), 1);
        wm.create(vc_host_disp.dst_vci, Rect::new(0, 0, 176, 144));
        let cam = sys.build_camera(
            &a,
            Scene::TestCard,
            CameraConfig::default(),
            vc_cam_host.src_vci,
        );
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(50 * MS);
        cam.borrow_mut().stop();
        sim.run();
        assert!(b.display.borrow().stats.tiles_blitted > 0);
        assert!(
            a.host_nic.borrow().bytes_touched > 0,
            "the CPU paid for every byte"
        );
        assert!(a.host_nic.borrow().cpu_time > 0);
    }

    #[test]
    fn forward_set_between_queued_cells_retransmits_the_rest_on_time() {
        use pegasus_atm::link::CaptureSink;
        let nic = HostNic::shared();
        let out = CaptureSink::shared();
        let mut wire = Link::new(100_000_000, 0, nic.clone());
        let tx = Rc::new(RefCell::new(Link::new(100_000_000, 0, out.clone())));
        let mut sim = Simulator::new();
        let arrivals: Vec<u64> = (0..10).map(|_| wire.send(&mut sim, Cell::new(5))).collect();
        sim.run_until(arrivals[2]);
        assert_eq!(nic.borrow().cells, 3);
        let cell_time = tx.borrow().cell_time();
        nic.borrow_mut().forward = Some((9, tx));
        sim.run();
        assert_eq!(nic.borrow().cells, 10);
        let resent: Vec<u64> = out.borrow().arrivals.iter().map(|(t, _)| *t).collect();
        let expect: Vec<u64> = arrivals[3..].iter().map(|t| t + cell_time).collect();
        assert_eq!(resent, expect, "each at its own arrival instant");
        assert!(out.borrow().arrivals.iter().all(|(_, c)| c.vci() == 9));
    }

    #[test]
    fn multi_switch_fabric_carries_video_between_sites() {
        use pegasus_atm::network::TopologyShape;
        let mut sys = System::builder()
            .topology(TopologyShape::Ring, 4)
            .link(LinkConfig::pegasus_default())
            .build();
        assert_eq!(sys.fabric.len(), 4);
        let a = sys.add_workstation_at(0, "north", 40);
        let b = sys.add_workstation_at(2, "south", 40);
        // Two ring hops between the sites.
        let vc = sys
            .net
            .open_vc(a.camera_ep, b.display_ep, QosSpec::guaranteed(15_000_000))
            .unwrap();
        let mut wm = WindowManager::new(b.display.clone(), 1);
        wm.create(vc.dst_vci, Rect::new(0, 0, 176, 144));
        let cam = sys.build_camera(&a, Scene::TestCard, CameraConfig::default(), vc.src_vci);
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(100 * MS);
        cam.borrow_mut().stop();
        sim.run();
        assert!(b.display.borrow().stats.tiles_blitted > 100);
        assert_eq!(b.host_nic.borrow().bytes_touched, 0);
    }

    #[test]
    fn device_puts_endpoints_on_the_fabric() {
        use pegasus_atm::link::CaptureSink;
        let mut sys = System::new();
        let cam_ep = sys.device(0, HostNic::shared());
        let sink = CaptureSink::shared();
        let dst_ep = sys.device(0, sink.clone());
        let vc = sys
            .net
            .open_vc(cam_ep, dst_ep, QosSpec::guaranteed(5_000_000))
            .unwrap();
        let mut sim = Simulator::new();
        sys.net
            .endpoint_tx(cam_ep)
            .borrow_mut()
            .send(&mut sim, Cell::new(vc.src_vci));
        sim.run();
        assert_eq!(sink.borrow().arrivals.len(), 1);
    }

    #[test]
    fn admit_session_brokered_end_to_end() {
        use crate::broker::{
            FlowRequest, Outcome, QosBroker, RejectLayer, SessionClass, SessionRequest,
        };
        let mut sys = System::new();
        let a = sys.add_workstation("a", 40);
        let b = sys.add_workstation("b", 40);
        let mut broker = QosBroker::new(1_000, 0, 0, 500);
        let req = SessionRequest {
            class: SessionClass::Videophone,
            media_flows: vec![FlowRequest {
                src: a.camera_ep,
                dst: b.display_ep,
                bps: 60_000_000,
            }],
            fixed_flows: vec![FlowRequest {
                src: a.audio_src_ep,
                dst: b.audio_sink_ep,
                bps: 128_000,
            }],
            cpu_micro: 300,
            pfs_server: None,
        };
        let g1 = sys.admit_session(&mut broker, &req);
        assert_eq!(g1.outcome, Outcome::Admitted);
        assert_eq!(g1.vcs.len(), 2);
        // The shared backbone forces the second call down a rung, the
        // third out entirely — renegotiation, not collapse.
        let g2 = sys.admit_session(&mut broker, &req);
        assert_eq!(g2.outcome, Outcome::Degraded);
        let g3 = sys.admit_session(&mut broker, &req);
        assert_eq!(g3.outcome, Outcome::Rejected(RejectLayer::Bandwidth));
        // The books agree: two sessions' CPU and the degraded rate.
        assert_eq!(broker.cpu.reserved_micro(), 300 + 150);
        assert_eq!(g2.granted.video_bps, 30_000_000);
        assert!(g2.granted.le(&g2.requested));
    }

    #[test]
    fn backbone_endpoint_receives() {
        use pegasus_atm::link::CaptureSink;
        let mut sys = System::new();
        let a = sys.add_workstation("a", 40);
        let sink = CaptureSink::shared();
        let server = sys.add_backbone_endpoint(sink.clone());
        let vc = sys
            .net
            .open_vc(a.camera_ep, server, QosSpec::best_effort(0))
            .unwrap();
        let mut sim = Simulator::new();
        sys.net
            .endpoint_tx(a.camera_ep)
            .borrow_mut()
            .send(&mut sim, Cell::new(vc.src_vci));
        sim.run();
        assert_eq!(sink.borrow().arrivals.len(), 1);
    }
}
