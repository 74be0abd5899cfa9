//! Cross-crate integration: naming + RPC + events + scheduling — the
//! control side of the system (§3, §4).

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_system::naming::invoke::{DomainRelation, ObjectHandle, Service};
use pegasus_system::naming::maillon::ObjectRef;
use pegasus_system::naming::namespace::NameWorld;
use pegasus_system::naming::rpc::{CallMsg, RpcClient, RpcServer};
use pegasus_system::nemesis::events::{EventSystem, SignalMode};
use pegasus_system::nemesis::qosmgr::QosManager;
use pegasus_system::nemesis::sched::{CpuSim, Policy, TaskSpec};
use pegasus_system::sim::time::MS;
use pegasus_system::sim::Simulator;

struct Echo;
impl Service for Echo {
    fn invoke(&mut self, method: u32, args: &[u8]) -> Vec<u8> {
        let mut out = method.to_be_bytes().to_vec();
        out.extend_from_slice(args);
        out
    }
}

#[test]
fn resolve_then_invoke_across_the_relation_spectrum() {
    // A name resolves to an object ref; the handle binds it at three
    // different distances; calls work identically at all three.
    let mut world = NameWorld::new();
    let app = world.create_space();
    world.bind(app, "/srv/echo", ObjectRef(5)).unwrap();
    let r = world.resolve(app, "/srv/echo").unwrap();
    assert_eq!(r.object, ObjectRef(5));
    for rel in [
        DomainRelation::SameDomain,
        DomainRelation::SameMachine,
        DomainRelation::Remote,
    ] {
        let mut h = ObjectHandle::new(Rc::new(RefCell::new(Echo)), rel);
        let out = h.invoke(9, b"pegasus");
        assert_eq!(&out[4..], b"pegasus");
    }
}

#[test]
fn rpc_through_lossy_network_keeps_at_most_once() {
    let server = Rc::new(RefCell::new(RpcServer::new()));
    struct Incr(u32);
    impl Service for Incr {
        fn invoke(&mut self, _m: u32, _a: &[u8]) -> Vec<u8> {
            self.0 += 1;
            self.0.to_be_bytes().to_vec()
        }
    }
    let state = Rc::new(RefCell::new(Incr(0)));
    server.borrow_mut().export(1, state.clone());
    let mut client = RpcClient::new(1);
    // Every message (request or reply) has a 50% deterministic loss
    // pattern; at-most-once must still hold.
    let mut tick = 0u32;
    let server2 = server.clone();
    let mut transport = move |wire: &[u8]| {
        tick += 1;
        if tick.is_multiple_of(2) {
            return None;
        }
        let call = CallMsg::decode(wire).ok()?;
        let reply = server2.borrow_mut().handle(&call)?;
        Some(reply.encode())
    };
    for expect in 1..=10u32 {
        let r = client.call(&mut transport, 0, &[]).unwrap();
        assert_eq!(u32::from_be_bytes(r.try_into().unwrap()), expect);
    }
    assert_eq!(
        state.borrow().0,
        10,
        "exactly ten increments despite losses"
    );
}

#[test]
fn qos_manager_drives_scheduler_to_zero_misses() {
    // Manager grants from observed demand; scheduler runs the grants.
    let mut mgr = QosManager::new(0.9, 1.0);
    let a = mgr.add_app(1.0);
    let v = mgr.add_app(1.0);
    mgr.observe(a, 0.2);
    mgr.observe(v, 0.5);
    mgr.rebalance();
    let period = 10 * MS;
    let mut sim = CpuSim::new(Policy::NemesisEdf);
    sim.add_task(TaskSpec {
        name: "audio".into(),
        share: mgr.share_for(a, period),
        priority: 0,
        period,
        work: 2 * MS,
        use_slack: false,
        phase: 0,
    });
    sim.add_task(TaskSpec {
        name: "video".into(),
        share: mgr.share_for(v, period),
        priority: 0,
        period,
        work: 5 * MS,
        use_slack: false,
        phase: 0,
    });
    let r = sim.run(2_000 * MS);
    assert_eq!(r.tasks[0].misses, 0);
    assert_eq!(r.tasks[1].misses, 0);
}

#[test]
fn events_wake_a_domain_that_schedules_work() {
    // A device-driver-ish domain receives async interrupts (coalesced),
    // then issues a sync IDC-style notification downstream.
    let sys = EventSystem::shared();
    let mut sim = Simulator::new();
    let driver = sys.borrow_mut().add_domain();
    let app = sys.borrow_mut().add_domain();
    let irq = sys.borrow_mut().open_channel(driver);
    let notify = sys.borrow_mut().open_channel(app);
    let delivered: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    {
        let sys2 = sys.clone();
        let _ = &sys2;
        sys.borrow_mut().set_handler(
            driver,
            Box::new(move |sim, sys, _c, n| {
                // Batch of n interrupts → one downstream notification.
                let _ = n;
                EventSystem::send(sys, sim, notify, SignalMode::Synchronous);
            }),
        );
    }
    let d2 = delivered.clone();
    sys.borrow_mut()
        .set_handler(app, Box::new(move |_s, _y, _c, n| *d2.borrow_mut() += n));
    for i in 0..50u64 {
        let sys = sys.clone();
        sim.schedule_at(i * 1_000, move |sim| {
            EventSystem::send(&sys, sim, irq, SignalMode::Asynchronous);
        });
    }
    sim.run();
    assert!(*delivered.borrow() >= 1);
    let acked = sys.borrow().acked_count(irq);
    assert_eq!(acked, 50, "all interrupts eventually acknowledged");
    assert!(
        sys.borrow().activations(driver) < 10,
        "async coalescing kept driver activations low: {}",
        sys.borrow().activations(driver)
    );
}
