//! Recording and playback through the Pegasus File Server.
//!
//! "The Pegasus File Server, which can also be viewed as a multimedia
//! device in this context, uses the control stream associated with an
//! incoming data stream to generate index information that can later be
//! used to go to specific time offsets into a media file" (§2.2); the
//! continuous-media service stack then supports "reading synchronized
//! streams from a particular point, and fast forward, reverse play,
//! etc." (§5).
//!
//! [`RecorderSink`] is the storage server's ingest endpoint: it
//! reassembles the camera's AAL5 frames, appends them (length-prefixed)
//! to a continuous-media file, and drops an index mark per video frame.
//! [`MediaPlayer`] reads frames back from any indexed time offset.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_atm::aal5::Reassembler;
use pegasus_atm::cell::Cell;
use pegasus_atm::link::CellSink;
use pegasus_devices::tile::{TileFrame, TileFrameView};
use pegasus_pfs::cm::StreamIndex;
use pegasus_pfs::log::{FileClass, FileId, FsError, LogFs};
use pegasus_sim::time::Ns;
use pegasus_sim::Simulator;

/// The storage server's ingest endpoint for one media stream.
pub struct RecorderSink {
    /// The backing file system (shared with the player).
    pub fs: Rc<RefCell<LogFs>>,
    /// The file being recorded.
    pub file: FileId,
    /// Timestamp → byte-offset index, one mark per video frame.
    pub index: StreamIndex,
    reasm: Reassembler,
    offset: u64,
    last_indexed_frame: Option<u32>,
    /// Length-prefix + frame scratch, reused so steady-state ingest
    /// performs one file-system append and no allocations per frame.
    rec_scratch: Vec<u8>,
    /// AAL5 frames stored.
    pub frames_stored: u64,
    /// Reassembly/parse failures.
    pub frames_bad: u64,
}

impl RecorderSink {
    /// Creates a recorder appending to a fresh continuous-media file in
    /// `fs`.
    pub fn shared(fs: Rc<RefCell<LogFs>>) -> Rc<RefCell<RecorderSink>> {
        let file = fs.borrow_mut().create(FileClass::Continuous);
        Rc::new(RefCell::new(RecorderSink {
            fs,
            file,
            index: StreamIndex::new(),
            reasm: Reassembler::new(),
            offset: 0,
            last_indexed_frame: None,
            rec_scratch: Vec::new(),
            frames_stored: 0,
            frames_bad: 0,
        }))
    }

    fn store(&mut self, bytes: &[u8]) -> Result<(), FsError> {
        // Index on the first tile-frame of each video frame.
        if let Ok(tf) = TileFrameView::parse(bytes) {
            if self.last_indexed_frame != Some(tf.frame_seq) {
                self.index.add_mark(tf.timestamp, self.offset);
                self.last_indexed_frame = Some(tf.frame_seq);
            }
        }
        self.rec_scratch.clear();
        self.rec_scratch
            .extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        self.rec_scratch.extend_from_slice(bytes);
        self.fs.borrow_mut().append(self.file, &self.rec_scratch)?;
        self.offset += self.rec_scratch.len() as u64;
        self.frames_stored += 1;
        Ok(())
    }
}

impl CellSink for RecorderSink {
    fn deliver(&mut self, _sim: &mut Simulator, cell: Cell) {
        // Zero-copy ingest: a clean camera frame arrives as a view of
        // the producer's arena buffer and goes straight to the log.
        match self.reasm.push_frame(&cell) {
            None => {}
            Some(Ok(lease)) => self.frames_bad += u64::from(self.store(&lease).is_err()),
            Some(Err(_)) => self.frames_bad += 1,
        }
    }
}

/// Reads recorded streams back out of the file server.
pub struct MediaPlayer;

impl MediaPlayer {
    /// Reads every stored tile frame from byte `offset` to the end.
    ///
    /// Record bodies come back as arena leases ([`LogFs::read_leased`])
    /// recycled record-to-record, so a long playback scan reuses two
    /// buffers instead of allocating two `Vec`s per stored frame.
    pub fn read_from_offset(
        fs: &mut LogFs,
        file: FileId,
        offset: u64,
    ) -> Result<Vec<TileFrame>, FsError> {
        let arena = pegasus_sim::arena::Arena::new();
        let size = fs.pnode(file).ok_or(FsError::NoSuchFile)?.size;
        let mut out = Vec::new();
        let mut pos = offset;
        while pos + 4 <= size {
            let lenb = fs.read_leased(file, pos, 4, &arena)?;
            let len = u32::from_be_bytes(lenb[..4].try_into().expect("4 bytes")) as u64;
            drop(lenb);
            if pos + 4 + len > size {
                break; // torn tail record
            }
            let body = fs.read_leased(file, pos + 4, len as usize, &arena)?;
            if let Ok(tf) = TileFrame::decode(&body) {
                out.push(tf);
            }
            pos += 4 + len;
        }
        Ok(out)
    }

    /// Seeks by timestamp through the index, then reads to the end.
    pub fn play_from(
        fs: &mut LogFs,
        file: FileId,
        index: &StreamIndex,
        ts: Ns,
    ) -> Result<Vec<TileFrame>, FsError> {
        let offset = index.offset_for(ts).unwrap_or(0);
        Self::read_from_offset(fs, file, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use pegasus_atm::signalling::QosSpec;
    use pegasus_devices::camera::{Camera, CameraConfig};
    use pegasus_devices::video::Scene;
    use pegasus_pfs::disk::DiskConfig;
    use pegasus_sim::time::MS;

    fn record_for(duration: Ns) -> (Rc<RefCell<RecorderSink>>, u64) {
        let mut sys = System::new();
        let ws = sys.add_workstation("studio", 40);
        let fs = Rc::new(RefCell::new(LogFs::new(DiskConfig::hp_1994())));
        let rec = RecorderSink::shared(fs);
        let storage_ep = sys.add_backbone_endpoint(rec.clone());
        let vc = sys
            .net
            .open_vc(ws.camera_ep, storage_ep, QosSpec::guaranteed(20_000_000))
            .unwrap();
        let cam = sys.build_camera(
            &ws,
            Scene::MovingGradient,
            CameraConfig::default(),
            vc.src_vci,
        );
        let mut sim = Simulator::new();
        Camera::start(&cam, &mut sim);
        sim.run_until(duration);
        cam.borrow_mut().stop();
        sim.run();
        let frames = cam.borrow().stats.frames_captured;
        (rec, frames)
    }

    #[test]
    fn recording_lands_in_the_file_server() {
        let (rec, _) = record_for(200 * MS);
        let r = rec.borrow();
        assert!(r.frames_stored > 50, "stored {}", r.frames_stored);
        assert_eq!(r.frames_bad, 0);
        let size = {
            let fs = r.fs.borrow();
            fs.pnode(r.file).unwrap().size
        };
        assert!(size > 10_000, "file size {size}");
    }

    #[test]
    fn index_has_one_mark_per_video_frame() {
        let (rec, cam_frames) = record_for(400 * MS);
        let r = rec.borrow();
        let marks = r.index.len() as u64;
        assert!(
            marks >= cam_frames - 1 && marks <= cam_frames + 1,
            "marks {marks} vs frames {cam_frames}"
        );
    }

    #[test]
    fn playback_from_start_returns_all_frames() {
        let (rec, _) = record_for(200 * MS);
        let (file, stored) = (rec.borrow().file, rec.borrow().frames_stored);
        let fs = rec.borrow().fs.clone();
        let frames = {
            let mut fs = fs.borrow_mut();
            MediaPlayer::read_from_offset(&mut fs, file, 0).unwrap()
        };
        assert_eq!(frames.len() as u64, stored);
        // Frames come back in capture order.
        let mut last = 0;
        for f in &frames {
            assert!(f.frame_seq >= last);
            last = f.frame_seq;
        }
    }

    #[test]
    fn seek_by_timestamp_skips_early_frames() {
        let (rec, _) = record_for(400 * MS);
        let file = rec.borrow().file;
        let fs = rec.borrow().fs.clone();
        let index = rec.borrow().index.clone();
        let mut fs = fs.borrow_mut();
        let all = MediaPlayer::play_from(&mut fs, file, &index, 0).unwrap();
        let late = MediaPlayer::play_from(&mut fs, file, &index, 200 * MS).unwrap();
        assert!(late.len() < all.len());
        assert!(!late.is_empty());
        // Every returned frame was captured at or after (roughly) the
        // seek point — the index floors to the previous mark.
        let first_ts = late[0].timestamp;
        assert!(first_ts <= 200 * MS + 40 * MS);
        assert!(late.iter().all(|f| f.timestamp >= first_ts));
    }

    #[test]
    fn reverse_marks_walk_backward() {
        let (rec, _) = record_for(300 * MS);
        let index = rec.borrow().index.clone();
        let rev = index.reverse(250 * MS);
        assert!(rev.len() > 2);
        for pair in rev.windows(2) {
            assert!(pair[0].0 >= pair[1].0);
        }
    }
}
