//! Playback synchronization (§2.2).
//!
//! "The playback control process is then responsible for the
//! synchronization of the play-out of the various streams arriving at
//! it, based on the source synchronization information from the remote
//! manager(s) and data arrival events."
//!
//! [`playback`] is that process, driven from arrival events: it presents
//! each stream's items on arrival or at a common delay after capture,
//! and measures their latency, lateness and inter-stream skew. The
//! section's control wire format, per-device data + control VC pair
//! and control-stream merger are not modelled: no claim measures them.

pub mod playback;

pub use playback::{ArrivalSink, PlaybackControl, PlaybackPolicy, StreamId};
