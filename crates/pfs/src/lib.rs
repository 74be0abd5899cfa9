//! The Pegasus File Server (§5).
//!
//! "The storage system in Pegasus is intended to store traditional file
//! data as well as multimedia data efficiently" — a hierarchical design
//! whose common bottom layer (the *core*) "is responsible for reading
//! and writing the data on secondary and tertiary storage devices",
//! with specialized service stacks above it.
//!
//! * [`disk`] — simulated disks with seek/rotation/transfer timing and
//!   fail-stop fault injection.
//! * [`raid`] — megabyte segments striped over four data disks plus a
//!   parity disk, with single-failure reconstruction.
//! * [`log`] — the log-structured core layer: segments, pnodes,
//!   separate segments for continuous-media data, checkpoints.
//! * [`cleaner`] — the garbage-file cleaner whose cost depends only on
//!   the garbage, with a Sprite-LFS-style scanning cleaner as baseline.
//! * [`cache`] — client/server LRU caching for ordinary data and the
//!   sequential-scan pathology that makes caching video useless.
//! * [`tier`] — the tiered content cache (hot arena / warm SSD-class /
//!   cold log) that fixes that pathology by construction.
//! * [`cm`] — the continuous-media service stack: rate-guaranteed
//!   streams and control-stream-derived indexes for seek/FF/reverse.
//! * [`client`] — client agents: write-behind buffering whose copies
//!   make the data safe under any single-component crash.
//! * [`workload`] — Baker-style file-lifetime traces ("70% of files are
//!   deleted or overwritten within 30 seconds").
//! * [`checkpoint`] — Sprite-style checkpointing of the pnode map into
//!   the log, and crash recovery from it.

pub mod cache;
pub mod checkpoint;
pub mod cleaner;
pub mod client;
pub mod cm;
pub mod disk;
pub mod log;
pub mod raid;
pub mod tier;
pub mod workload;

pub use disk::{DiskConfig, SimDisk};
pub use log::{FileClass, FileId, LogFs};
pub use raid::RaidArray;
