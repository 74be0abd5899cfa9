//! Maillons: object handles as chains of links.
//!
//! "For our handles we use maillons, which consist of an opaque,
//! fixed-size, object reference and a pointer to a function that returns
//! the address of the interface when called with the reference as
//! argument. The extra level of indirection provided by the maillon
//! allows connections to objects to be set up, or objects to be fetched
//! before their first invocation, but in the most common case — the
//! object is already there and ready to be invoked — the maillon imposes
//! very little overhead." (§4)

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_sim::time::Ns;

/// The opaque, fixed-size object reference inside a maillon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectRef(pub u64);

/// A bound interface: what the resolver returns. Generic over the
/// interface type so services of any shape can be handled.
pub type IfaceRc<T> = Rc<RefCell<T>>;

/// The resolver half of a maillon: maps the reference to the interface,
/// possibly doing expensive work (connection setup, object fetch) the
/// first time.
pub type Resolver<T> = Box<dyn FnMut(ObjectRef) -> (IfaceRc<T>, Ns)>;

/// A maillon handle for interfaces of type `T`.
pub struct Maillon<T> {
    oref: ObjectRef,
    resolver: Resolver<T>,
    bound: Option<IfaceRc<T>>,
    /// Cost of a bound (cached) dereference — the "very little
    /// overhead" steady-state path.
    pub deref_cost: Ns,
    /// Resolver invocations performed.
    pub resolutions: u64,
    /// Total virtual time spent dereferencing (first call + rest).
    pub time_spent: Ns,
}

impl<T> Maillon<T> {
    /// Creates an unbound maillon for `oref` using `resolver`.
    pub fn new(oref: ObjectRef, resolver: Resolver<T>) -> Self {
        Maillon {
            oref,
            resolver,
            bound: None,
            deref_cost: 20, // a pointer chase and a compare
            resolutions: 0,
            time_spent: 0,
        }
    }

    /// Dereferences the maillon: resolves on first use, then returns the
    /// cached interface at near-zero cost.
    pub fn interface(&mut self) -> IfaceRc<T> {
        if let Some(iface) = &self.bound {
            self.time_spent += self.deref_cost;
            return iface.clone();
        }
        let (iface, cost) = (self.resolver)(self.oref);
        self.resolutions += 1;
        self.time_spent += cost + self.deref_cost;
        self.bound = Some(iface.clone());
        iface
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FrameBuffer {
        writes: u32,
    }

    fn maillon_with_cost(setup_cost: Ns) -> Maillon<FrameBuffer> {
        Maillon::new(
            ObjectRef(9),
            Box::new(move |_oref| (Rc::new(RefCell::new(FrameBuffer { writes: 0 })), setup_cost)),
        )
    }

    #[test]
    fn first_use_resolves_then_caches() {
        let mut m = maillon_with_cost(1_000_000);
        assert!(m.bound.is_none());
        let i1 = m.interface();
        assert!(m.bound.is_some());
        let i2 = m.interface();
        assert!(Rc::ptr_eq(&i1, &i2), "same interface returned");
        assert_eq!(m.resolutions, 1, "resolver ran once");
    }

    #[test]
    fn steady_state_overhead_is_tiny() {
        let mut m = maillon_with_cost(1_000_000);
        m.interface();
        let after_first = m.time_spent;
        for _ in 0..100 {
            m.interface();
        }
        let steady = (m.time_spent - after_first) / 100;
        assert_eq!(steady, m.deref_cost);
        assert!(steady < 100, "steady-state deref {steady} ns");
        assert!(after_first > 1_000_000);
    }

    #[test]
    fn interface_is_usable() {
        let mut m = maillon_with_cost(0);
        m.interface().borrow_mut().writes += 1;
        m.interface().borrow_mut().writes += 1;
        assert_eq!(m.interface().borrow().writes, 2);
    }

    #[test]
    fn reference_preserved() {
        let m = maillon_with_cost(0);
        assert_eq!(m.oref, ObjectRef(9));
    }

    #[test]
    fn resolver_sees_the_reference() {
        let got = Rc::new(Cell::new(None));
        let got_in_resolver = Rc::clone(&got);
        let mut m: Maillon<u32> = Maillon::new(
            ObjectRef(1234),
            Box::new(move |oref| {
                got_in_resolver.set(Some(oref));
                (Rc::new(RefCell::new(0u32)), 0)
            }),
        );
        m.interface();
        assert_eq!(got.get(), Some(ObjectRef(1234)));
    }
}
