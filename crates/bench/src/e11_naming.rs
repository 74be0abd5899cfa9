//! E11 — Local names resolve cheapest, a bound maillon "imposes very
//! little overhead", and procedure < protected < RPC invocation (§4).

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_naming::invoke::{DomainRelation, ObjectHandle, Service};
use pegasus_naming::maillon::{Maillon, ObjectRef};
use pegasus_naming::namespace::NameWorld;
use pegasus_sim::time::fmt_ns;
use crate::{orders, Claim, Result};

struct Noop;
impl Service for Noop {
    fn invoke(&mut self, _m: u32, _a: &[u8]) -> Vec<u8> {
        Vec::new()
    }
}

pub fn claim() -> Result<Claim> {
    // Resolution cost vs path shape.
    let mut w = NameWorld::new();
    let local = w.create_space();
    let global = w.create_space();
    let far = w.create_space();
    w.bind(local, "/fb", ObjectRef(1))?;
    w.bind(local, "/dev/cam", ObjectRef(2))?;
    w.bind(global, "/site/camera", ObjectRef(3))?;
    w.bind(far, "/x", ObjectRef(4))?;
    w.mount(global, "/far", far)?;
    w.mount(local, "/global", global)?;
    let mut rows = Vec::new();
    let mut cost = Vec::new();
    for path in ["/fb", "/dev/cam", "/global/site/camera", "/global/far/x"] {
        let r = w.resolve(local, path)?;
        rows.push(format!(
            "path={path}  components={}  mount hops={}  cost={}",
            r.components,
            r.mount_hops,
            fmt_ns(r.cost)
        ));
        cost.push(r.cost);
    }

    // Maillon: first dereference vs steady state.
    let mut m: Maillon<Noop> = Maillon::new(
        ObjectRef(9),
        Box::new(|_| (Rc::new(RefCell::new(Noop)), 2_000_000)),
    );
    m.interface();
    let first = m.time_spent;
    for _ in 0..1_000 {
        m.interface();
    }
    let steady = (m.time_spent - first) / 1_000;
    rows.push(format!(
        "maillon first deref={}  steady-state deref={}",
        fmt_ns(first),
        fmt_ns(steady)
    ));

    // Invocation hierarchy.
    let mut per_call = Vec::new();
    for (label, rel) in [
        ("procedure (same domain)", DomainRelation::SameDomain),
        ("protected (same machine)", DomainRelation::SameMachine),
        ("rpc (remote)", DomainRelation::Remote),
    ] {
        let mut h = ObjectHandle::new(Rc::new(RefCell::new(Noop)), rel);
        for _ in 0..100 {
            h.invoke(0, &[]);
        }
        rows.push(format!(
            "invocation={label}  per call={}  100 calls mechanism time={}",
            fmt_ns(rel.call_cost()),
            fmt_ns(h.mechanism_time)
        ));
        per_call.push(rel.call_cost() as f64);
    }
    // One more component (rows 0→1) against one more mount hop at the
    // same component count (rows 2→3).
    let (component, hop) = (cost[1] - cost[0], cost[3] - cost[2]);
    Ok(Claim {
        id: "E11",
        title: "resolution cost vs distance; maillon overhead; invocation hierarchy",
        anchor: "§4 naming and invocation",
        expected_shape: "cost grows with components and especially mount hops; maillon steady \
            state ≈ 20 ns (15–25); each invocation tier ~1–2 orders of magnitude costlier",
        rows,
        measured: format!(
            "component +{component} ns, mount hop +{hop} ns; maillon {steady} ns; tiers ×{:.0}, ×{:.0}",
            per_call[1] / per_call[0],
            per_call[2] / per_call[1]
        ),
        holds: cost.windows(2).all(|c| c[1] > c[0])
            && hop > component
            && (15..=25).contains(&steady)
            && per_call
                .windows(2)
                .all(|c| (1.0..=2.0).contains(&orders(c[1], c[0]))),
    })
}
