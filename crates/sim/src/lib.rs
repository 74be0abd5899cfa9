//! Deterministic discrete-event simulation engine for the Pegasus reproduction.
//!
//! The 1994 Pegasus project ran on physical hardware: DECstations, Fairisle
//! ATM switches, a hardware ATM camera. This crate replaces that testbed with
//! a deterministic virtual-time simulator. Every hardware element in the
//! other crates (links, switches, disks, sample clocks) is a model scheduled
//! on this engine, so latency, jitter and throughput experiments are exact
//! functions of the configured timing parameters and are reproducible
//! run-to-run.
//!
//! # Examples
//!
//! ```
//! use pegasus_sim::{Simulator, time};
//!
//! let mut sim = Simulator::new();
//! sim.schedule_in(3 * time::MS, |sim| {
//!     assert_eq!(sim.now(), 3 * time::MS);
//! });
//! sim.run();
//! assert_eq!(sim.now(), 3 * time::MS);
//! ```

pub mod arena;
pub mod engine;
pub mod rng;
pub mod stats;
pub mod time;
pub mod train;

pub use arena::{Arena, ArenaStats, FrameBuf, FrameBufMut, FrameView, WeakFrameBuf};
pub use engine::{EventId, Lane, SharedHandler, Simulator, MAX_LANE};
pub use stats::{Counter, Histogram, TimeWeighted};
pub use time::Ns;
pub use train::Train;
