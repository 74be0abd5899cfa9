//! Naming and invocation (§4).
//!
//! "Most objects will be used locally. Therefore ... name resolution
//! should be most efficient for local names. This implies that local
//! names should be shortest ... The root of the naming tree can be the
//! most local object and longer path names generally name objects
//! further away." The name space is global only by *convention* (a
//! `/global` subtree), in the manner of Plan 9.
//!
//! * [`namespace`] — per-process name spaces: a local tree plus mounted
//!   name spaces reached through connections; resolution cost grows
//!   with distance, exactly the property E11 measures.
//! * [`maillon`] — object handles as *maillons*: an opaque reference
//!   plus a resolver function, adding almost nothing once bound.
//! * [`invoke`] — method invocation by domain relation: procedure call
//!   within a protection domain, protected (IDC) call within a machine,
//!   RPC across machines.
//! * [`rpc`] — the ANSA-flavoured remote-procedure-call layer with
//!   at-most-once semantics, layered on an MSNA-ish transport (AAL5
//!   framing in the integration path).

pub mod invoke;
pub mod maillon;
pub mod namespace;
pub mod rpc;

pub use invoke::{DomainRelation, ObjectHandle, Service};
pub use maillon::{Maillon, ObjectRef};
pub use namespace::{NameError, NameSpaceId, NameWorld};
