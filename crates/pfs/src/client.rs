//! Client agents and write-behind buffering.
//!
//! "When an application makes a write operation, the client agent sends
//! the data to the server and keeps a copy of the data in its buffers.
//! When the server receives the data, it acknowledges this to the client
//! agent which, in turn, unblocks the application. The data is now safe
//! under single-point failures: when the server crashes, the client
//! agent notices and either writes the data to an alternative server or
//! waits for the crashed server to come back up; when the client machine
//! crashes, the server will complete the write operation. ... These
//! mechanisms obviate the need for writing data to disk quickly."
//! (§5)
//!
//! The pay-off, via Baker et al.: "70% of files are deleted or
//! overwritten within 30 seconds", so delaying the disk write lets most
//! data die in memory — fewer disk writes *and* less cleaner garbage.
//! [`WriteBehindSystem`] models the client copy + server buffer pair
//! with explicit virtual time and fault injection for all the crash
//! cases the paper enumerates.

use std::collections::HashMap;

use crate::log::{FileClass, FileId, FsError, LogFs};
use pegasus_sim::arena::{Arena, FrameBuf};
use pegasus_sim::time::Ns;

/// When the server pushes buffered data to the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write to disk before acknowledging (the conventional safe path).
    WriteThrough,
    /// Buffer in server memory for up to `delay`, relying on the client
    /// copy (and UPS) for safety.
    WriteBehind {
        /// Maximum residence time in the server buffer.
        delay: Ns,
    },
}

/// One write in flight: the server buffer and the client agent reference
/// the *same* immutable arena lease — "keeps a copy of the data in its
/// buffers" costs a refcount bump, not a second allocation.
#[derive(Debug, Clone)]
struct Pending {
    file: FileId,
    data: FrameBuf,
    enqueued: Ns,
    seq: u64,
}

/// Counters for the write path.
#[derive(Debug, Default, Clone)]
pub struct WriteStats {
    /// Bytes the application wrote.
    pub app_bytes: u64,
    /// Bytes that reached the log (disk).
    pub disk_bytes: u64,
    /// Bytes absorbed: deleted or overwritten while still buffered, so
    /// they never cost a disk write.
    pub absorbed_bytes: u64,
    /// Bytes lost (only possible with write-behind, no UPS, power cut).
    pub lost_bytes: u64,
    /// Writes replayed by the client after a server crash.
    pub replayed_writes: u64,
}

/// The client-agent + server-buffer pair over a [`LogFs`].
pub struct WriteBehindSystem {
    /// The backing file system.
    pub fs: LogFs,
    policy: WritePolicy,
    now: Ns,
    /// Data acknowledged but not yet on disk (server RAM).
    server_pending: Vec<Pending>,
    /// Copies the client agent retains until the server writes to disk
    /// (references to the same leases the server holds).
    client_copies: HashMap<u64, Pending>,
    /// The pool write leases are drawn from; committed buffers recycle.
    arena: Arena,
    next_seq: u64,
    /// Whether the server has battery backup / UPS.
    pub server_has_ups: bool,
    /// Counters.
    pub stats: WriteStats,
}

impl WriteBehindSystem {
    /// Creates the pair with the given policy over `fs`.
    pub fn new(fs: LogFs, policy: WritePolicy) -> Self {
        WriteBehindSystem {
            fs,
            policy,
            now: 0,
            server_pending: Vec::new(),
            client_copies: HashMap::new(),
            arena: Arena::new(),
            next_seq: 0,
            server_has_ups: true,
            stats: WriteStats::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Advances virtual time, flushing server-buffered writes whose
    /// residence time expired.
    pub fn advance(&mut self, dt: Ns) -> Result<(), FsError> {
        self.now += dt;
        if let WritePolicy::WriteBehind { delay } = self.policy {
            let due: Vec<Pending> = {
                let now = self.now;
                let (due, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.server_pending)
                    .into_iter()
                    .partition(|p| now.saturating_sub(p.enqueued) >= delay);
                self.server_pending = keep;
                due
            };
            for p in due {
                self.commit(p)?;
            }
        }
        Ok(())
    }

    fn commit(&mut self, p: Pending) -> Result<(), FsError> {
        self.fs.append(p.file, &p.data)?;
        self.stats.disk_bytes += p.data.len() as u64;
        // The data is on disk: the client copy may be released.
        self.client_copies.remove(&p.seq);
        Ok(())
    }

    /// Creates a file (metadata only; pnode creation is cheap).
    pub fn create(&mut self) -> FileId {
        self.fs.create(FileClass::Normal)
    }

    /// The application writes (appends) `data` to `file`. Returns after
    /// the "ack": write-through waits for disk; write-behind returns as
    /// soon as the server holds the data and the client holds its copy.
    pub fn write(&mut self, file: FileId, data: &[u8]) -> Result<(), FsError> {
        self.stats.app_bytes += data.len() as u64;
        match self.policy {
            WritePolicy::WriteThrough => {
                self.fs.append(file, data)?;
                self.stats.disk_bytes += data.len() as u64;
                Ok(())
            }
            WritePolicy::WriteBehind { .. } => {
                // One copy into an arena lease; server buffer and client
                // agent then share it by refcount (the seed did
                // `to_vec()` *and* a full `clone()` — two copies).
                let p = Pending {
                    file,
                    data: self.arena.frame_from(data),
                    enqueued: self.now,
                    seq: self.next_seq,
                };
                self.next_seq += 1;
                self.client_copies.insert(p.seq, p.clone());
                self.server_pending.push(p);
                Ok(())
            }
        }
    }

    /// The application deletes `file`. Buffered data for it is absorbed
    /// — it never reaches the disk and creates no log garbage.
    pub fn delete(&mut self, file: FileId) -> Result<(), FsError> {
        let absorbed: u64 = self
            .server_pending
            .iter()
            .filter(|p| p.file == file)
            .map(|p| p.data.len() as u64)
            .sum();
        self.stats.absorbed_bytes += absorbed;
        let dropped: Vec<u64> = self
            .server_pending
            .iter()
            .filter(|p| p.file == file)
            .map(|p| p.seq)
            .collect();
        self.server_pending.retain(|p| p.file != file);
        for seq in dropped {
            self.client_copies.remove(&seq);
        }
        self.fs.delete(file)
    }

    /// Server crash: its volatile buffer is lost; the client agent
    /// notices and replays every unacknowledged-to-disk write from its
    /// copies. No data is lost.
    pub fn crash_server(&mut self) -> Result<(), FsError> {
        self.server_pending.clear();
        // Replay, in sequence order, everything the client still holds.
        let mut copies: Vec<Pending> = self.client_copies.values().cloned().collect();
        copies.sort_unstable_by_key(|p| p.seq);
        for p in copies {
            self.stats.replayed_writes += 1;
            self.server_pending.push(Pending {
                enqueued: self.now,
                ..p
            });
        }
        Ok(())
    }

    /// Client crash: its copies are lost; the server completes every
    /// buffered write immediately. No data is lost.
    pub fn crash_client(&mut self) -> Result<(), FsError> {
        self.client_copies.clear();
        for p in std::mem::take(&mut self.server_pending) {
            self.commit(p)?;
        }
        Ok(())
    }

    /// Power failure: client and server crash together. With a UPS the
    /// server flushes its volatile buffers and halts; without one, the
    /// buffered bytes are gone. Returns the bytes lost.
    pub fn power_failure(&mut self) -> Result<u64, FsError> {
        self.client_copies.clear();
        let pending = std::mem::take(&mut self.server_pending);
        if self.server_has_ups {
            for p in pending {
                self.commit(p)?;
            }
            Ok(0)
        } else {
            let lost: u64 = pending.iter().map(|p| p.data.len() as u64).sum();
            self.stats.lost_bytes += lost;
            Ok(lost)
        }
    }

    /// Flushes everything (orderly shutdown).
    pub fn shutdown(&mut self) -> Result<(), FsError> {
        for p in std::mem::take(&mut self.server_pending) {
            self.commit(p)?;
        }
        self.fs.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;
    use pegasus_sim::time::SEC;

    fn system(policy: WritePolicy) -> WriteBehindSystem {
        WriteBehindSystem::new(LogFs::new(DiskConfig::hp_1994()), policy)
    }

    /// Bytes currently buffered in server memory.
    fn pending_bytes(s: &WriteBehindSystem) -> u64 {
        s.server_pending.iter().map(|p| p.data.len() as u64).sum()
    }

    const DELAY: Ns = 30 * SEC;

    #[test]
    fn write_through_hits_disk_immediately() {
        let mut s = system(WritePolicy::WriteThrough);
        let f = s.create();
        s.write(f, &[1u8; 1000]).unwrap();
        assert_eq!(s.stats.disk_bytes, 1000);
        assert_eq!(pending_bytes(&s), 0);
    }

    #[test]
    fn write_behind_defers_then_flushes() {
        let mut s = system(WritePolicy::WriteBehind { delay: DELAY });
        let f = s.create();
        s.write(f, &[1u8; 1000]).unwrap();
        assert_eq!(s.stats.disk_bytes, 0);
        assert_eq!(pending_bytes(&s), 1000);
        s.advance(29 * SEC).unwrap();
        assert_eq!(s.stats.disk_bytes, 0, "not due yet");
        s.advance(SEC).unwrap();
        assert_eq!(s.stats.disk_bytes, 1000);
        assert_eq!(pending_bytes(&s), 0);
        // Data is readable once committed.
        let back = s.fs.read(f, 0, 1000).unwrap();
        assert_eq!(back, vec![1u8; 1000]);
    }

    #[test]
    fn early_delete_absorbs_the_write() {
        let mut s = system(WritePolicy::WriteBehind { delay: DELAY });
        let f = s.create();
        s.write(f, &[2u8; 5000]).unwrap();
        s.advance(10 * SEC).unwrap();
        s.delete(f).unwrap();
        s.advance(DELAY).unwrap();
        assert_eq!(s.stats.disk_bytes, 0, "short-lived data never hits disk");
        assert_eq!(s.stats.absorbed_bytes, 5000);
        // And, crucially, no log garbage was created.
        assert!(s.fs.garbage.is_empty());
    }

    #[test]
    fn write_through_same_lifetime_creates_garbage() {
        let mut s = system(WritePolicy::WriteThrough);
        let f = s.create();
        s.write(f, &[2u8; 5000]).unwrap();
        s.fs.sync().unwrap();
        s.delete(f).unwrap();
        assert_eq!(s.stats.disk_bytes, 5000);
        assert!(!s.fs.garbage.is_empty(), "died-on-disk data leaves holes");
    }

    #[test]
    fn server_crash_loses_nothing() {
        let mut s = system(WritePolicy::WriteBehind { delay: DELAY });
        let f = s.create();
        s.write(f, &[3u8; 2000]).unwrap();
        s.crash_server().unwrap();
        assert_eq!(s.stats.replayed_writes, 1);
        s.advance(DELAY).unwrap();
        assert_eq!(s.stats.disk_bytes, 2000);
        assert_eq!(s.fs.read(f, 0, 2000).unwrap(), vec![3u8; 2000]);
    }

    #[test]
    fn client_crash_loses_nothing() {
        let mut s = system(WritePolicy::WriteBehind { delay: DELAY });
        let f = s.create();
        s.write(f, &[4u8; 2000]).unwrap();
        s.crash_client().unwrap();
        // Server completed the write immediately.
        assert_eq!(s.stats.disk_bytes, 2000);
        assert_eq!(s.fs.read(f, 0, 2000).unwrap(), vec![4u8; 2000]);
    }

    #[test]
    fn power_failure_with_ups_flushes() {
        let mut s = system(WritePolicy::WriteBehind { delay: DELAY });
        s.server_has_ups = true;
        let f = s.create();
        s.write(f, &[5u8; 1500]).unwrap();
        let lost = s.power_failure().unwrap();
        assert_eq!(lost, 0);
        assert_eq!(s.stats.disk_bytes, 1500);
    }

    #[test]
    fn power_failure_without_ups_loses_buffered_data() {
        let mut s = system(WritePolicy::WriteBehind { delay: DELAY });
        s.server_has_ups = false;
        let f = s.create();
        s.write(f, &[6u8; 1500]).unwrap();
        let lost = s.power_failure().unwrap();
        assert_eq!(lost, 1500);
        assert_eq!(s.stats.lost_bytes, 1500);
        assert_eq!(s.stats.disk_bytes, 0);
    }

    #[test]
    fn multiple_writes_ordered_after_replay() {
        let mut s = system(WritePolicy::WriteBehind { delay: DELAY });
        let f = s.create();
        s.write(f, b"first ").unwrap();
        s.write(f, b"second").unwrap();
        s.crash_server().unwrap();
        s.advance(DELAY).unwrap();
        let back = s.fs.read(f, 0, 12).unwrap();
        assert_eq!(back, b"first second");
    }

    #[test]
    fn client_copy_is_a_reference_not_a_second_allocation() {
        let mut s = system(WritePolicy::WriteBehind { delay: DELAY });
        let f = s.create();
        s.write(f, &[8u8; 4096]).unwrap();
        // Server buffer + client copy share one lease: one buffer
        // outstanding, referenced from both sides.
        let st = s.arena.stats();
        assert_eq!(st.outstanding, 1, "one lease serves both copies");
        assert!(
            FrameBuf::same_buffer(&s.server_pending[0].data, &s.client_copies[&0].data),
            "server and client reference the same bytes"
        );
        // After commit both references drop and the storage recycles.
        s.advance(DELAY).unwrap();
        assert_eq!(s.arena.stats().outstanding, 0);
        s.write(f, &[9u8; 4096]).unwrap();
        assert_eq!(s.arena.stats().fresh_allocs, 1, "second write recycles");
    }

    #[test]
    fn shutdown_flushes_everything() {
        let mut s = system(WritePolicy::WriteBehind { delay: DELAY });
        let f = s.create();
        s.write(f, &[7u8; 999]).unwrap();
        s.shutdown().unwrap();
        assert_eq!(s.stats.disk_bytes, 999);
        assert_eq!(s.fs.read(f, 0, 999).unwrap(), vec![7u8; 999]);
    }
}
