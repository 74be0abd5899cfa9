//! Invocation by domain relation.
//!
//! "The precise manner in which methods are invoked depends upon the
//! 'domain relation' between invoker and object. If they share a
//! protection domain then the invocation is a procedure call; when they
//! are in the same address space but different protection domains ...
//! invocation is by protected call; and when in different address spaces
//! invocation is performed by remote procedure call." (§4)
//!
//! [`ObjectHandle::invoke`] dispatches through the right mechanism and
//! charges its cost, giving the procedure < protected < RPC hierarchy
//! that experiment E11 reports. The costs are 1994 figures of merit,
//! one per relation ([`DomainRelation::call_cost`]): `PROCEDURE`
//! (100 ns), `PROTECTED` (30 µs) and `RPC` (1.2 ms).

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_sim::time::Ns;

/// The abstract service interface every object exports: a method
/// selector plus marshalled arguments, as a stub compiler would produce.
pub trait Service {
    /// Invokes method `method` with `args`, returning the marshalled
    /// result.
    fn invoke(&mut self, method: u32, args: &[u8]) -> Vec<u8>;
}

/// Where the object lives relative to the invoker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainRelation {
    /// Same protection domain: plain procedure call.
    SameDomain,
    /// Same machine (single address space), different protection domain:
    /// protected call through an IDC channel.
    SameMachine,
    /// Different machines: remote procedure call.
    Remote,
}

/// A local procedure call: ~100 ns in 1994.
const PROCEDURE: Ns = 100;

/// A protected (IDC) call, two event hops + queue operations: ~30 µs.
const PROTECTED: Ns = 30_000;

/// A remote procedure call, marshalling + two network traversals: a
/// ~1.2 ms LAN RPC.
const RPC: Ns = 1_200_000;

impl DomainRelation {
    /// The mechanism cost of one call under this relation.
    pub fn call_cost(self) -> Ns {
        match self {
            DomainRelation::SameDomain => PROCEDURE,
            DomainRelation::SameMachine => PROTECTED,
            DomainRelation::Remote => RPC,
        }
    }
}

/// A bound object handle: the interface plus the relation-specific call
/// path. "The calling code depends on where the object is found when it
/// is invoked" — the handle carries exactly that binding.
pub struct ObjectHandle {
    service: Rc<RefCell<dyn Service>>,
    /// Where the object lives.
    pub relation: DomainRelation,
    /// Invocations made through this handle.
    pub calls: u64,
    /// Virtual time spent in invocation mechanism (not the method body).
    pub mechanism_time: Ns,
}

impl ObjectHandle {
    /// Binds a handle to `service` living at `relation`.
    pub fn new(service: Rc<RefCell<dyn Service>>, relation: DomainRelation) -> Self {
        ObjectHandle {
            service,
            relation,
            calls: 0,
            mechanism_time: 0,
        }
    }

    /// Invokes a method through the relation-appropriate mechanism.
    pub fn invoke(&mut self, method: u32, args: &[u8]) -> Vec<u8> {
        self.calls += 1;
        self.mechanism_time += self.relation.call_cost();
        self.service.borrow_mut().invoke(method, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Adder {
        total: i64,
    }

    impl Service for Adder {
        fn invoke(&mut self, method: u32, args: &[u8]) -> Vec<u8> {
            match method {
                0 => {
                    let v = i64::from_be_bytes(args.try_into().expect("8 bytes"));
                    self.total += v;
                    self.total.to_be_bytes().to_vec()
                }
                1 => self.total.to_be_bytes().to_vec(),
                _ => Vec::new(),
            }
        }
    }

    fn handle(relation: DomainRelation) -> ObjectHandle {
        ObjectHandle::new(Rc::new(RefCell::new(Adder { total: 0 })), relation)
    }

    #[test]
    fn method_dispatch_works() {
        let mut h = handle(DomainRelation::SameDomain);
        let r = h.invoke(0, &5i64.to_be_bytes());
        assert_eq!(i64::from_be_bytes(r.try_into().unwrap()), 5);
        let r = h.invoke(0, &7i64.to_be_bytes());
        assert_eq!(i64::from_be_bytes(r.try_into().unwrap()), 12);
    }

    #[test]
    fn cost_hierarchy_procedure_protected_rpc() {
        let mut local = handle(DomainRelation::SameDomain);
        let mut protected = handle(DomainRelation::SameMachine);
        let mut remote = handle(DomainRelation::Remote);
        for _ in 0..10 {
            local.invoke(1, &[]);
            protected.invoke(1, &[]);
            remote.invoke(1, &[]);
        }
        assert!(local.mechanism_time < protected.mechanism_time);
        assert!(protected.mechanism_time < remote.mechanism_time);
        // Orders of magnitude apart, as in the real hierarchy.
        assert!(protected.mechanism_time > 100 * local.mechanism_time);
        assert!(remote.mechanism_time > 10 * protected.mechanism_time);
    }

    #[test]
    fn migration_changes_cost_not_semantics() {
        let mut h = handle(DomainRelation::Remote);
        h.invoke(0, &3i64.to_be_bytes());
        let remote_cost = h.mechanism_time;
        // "When objects can migrate ... the interfaces to them may
        // change": the same handle, a new relation.
        h.relation = DomainRelation::SameDomain;
        let r = h.invoke(0, &4i64.to_be_bytes());
        assert_eq!(
            i64::from_be_bytes(r.try_into().unwrap()),
            7,
            "state survives migration"
        );
        assert!(
            h.mechanism_time - remote_cost < remote_cost,
            "calls get cheaper after migration"
        );
    }

    #[test]
    fn call_counting() {
        let mut h = handle(DomainRelation::SameMachine);
        for _ in 0..5 {
            h.invoke(1, &[]);
        }
        assert_eq!(h.calls, 5);
        assert_eq!(h.mechanism_time, 5 * 30_000);
    }
}
