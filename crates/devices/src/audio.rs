//! The ATM DSP/audio node (§2.1).
//!
//! "There is an ATM DSP node which combines digital signal processing
//! and audio input and output. This device contains DACs and ADCs and
//! packs and unpacks audio samples into ATM cells. Each such cell also
//! contains a time stamp."
//!
//! Audio "is much more susceptible to jitter ... the irregularities in
//! the transport and processing times" (§2): the DAC must be fed one
//! sample every sample period, so any cell arriving later than its
//! play-out instant is an audible drop-out. The [`AudioSink`] therefore
//! implements a play-out (jitter) buffer: it delays the start of
//! play-out until `target_depth` samples are queued, trading a fixed
//! latency for immunity to that much arrival jitter. Experiment E17
//! sweeps network jitter against buffer depth.
//!
//! The node carries one format, 8 kHz telephony (`SAMPLE_RATE`): a
//! sample every [`SAMPLE_PERIOD`] (125 µs) and a cell every
//! [`CELL_PERIOD`] (2.5 ms). The ADC digitizes a 440 Hz tone
//! (`TONE_HZ`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::OnceLock;

use pegasus_atm::cell::{Cell, Vci};
use pegasus_atm::link::{CellSink, Link};
use pegasus_sim::stats::Histogram;
use pegasus_sim::time::{Ns, SEC};
use pegasus_sim::Simulator;

/// Samples carried per cell: 48-byte payload = 8-byte timestamp + 20
/// 16-bit samples.
pub const SAMPLES_PER_CELL: usize = 20;

/// Sample rate in Hz: 8 kHz telephony, the one format the testbed's
/// DSP node carries.
const SAMPLE_RATE: u32 = 8_000;

/// Nanoseconds between samples (125 µs at 8 kHz).
pub const SAMPLE_PERIOD: Ns = SEC / SAMPLE_RATE as u64;

/// Nanoseconds between cells, 20 samples each (2.5 ms at 8 kHz).
pub const CELL_PERIOD: Ns = SAMPLE_PERIOD * SAMPLES_PER_CELL as u64;

/// Frequency of the tone the ADC digitizes, in Hz (concert A).
const TONE_HZ: u32 = 440;

/// Samples in one period of the sampled tone: 200 samples hold exactly
/// 11 cycles of 440 Hz at 8 kHz, and the tone repeats from there.
const TONE_PERIOD: usize = 200;
const _: () = assert!((TONE_PERIOD as u32 * TONE_HZ).is_multiple_of(SAMPLE_RATE));

/// The tone at sample `n`, computed: a pure sine.
fn tone_at(n: u64) -> i16 {
    let phase = (n as f64 * TONE_HZ as f64 / SAMPLE_RATE as f64) * std::f64::consts::TAU;
    (phase.sin() * 12_000.0) as i16
}

/// Packs a timestamp and samples into a cell payload.
pub fn pack_cell(vci: Vci, timestamp: Ns, samples: &[i16; SAMPLES_PER_CELL]) -> Cell {
    let mut payload = [0u8; 48];
    payload[..8].copy_from_slice(&timestamp.to_be_bytes());
    for (i, s) in samples.iter().enumerate() {
        payload[8 + 2 * i..8 + 2 * i + 2].copy_from_slice(&s.to_be_bytes());
    }
    Cell::with_payload(vci, &payload)
}

/// Unpacks a cell produced by [`pack_cell`].
pub(crate) fn unpack_cell(cell: &Cell) -> (Ns, [i16; SAMPLES_PER_CELL]) {
    let payload = cell.payload();
    let ts = Ns::from_be_bytes(payload[..8].try_into().expect("8 bytes"));
    let mut samples = [0i16; SAMPLES_PER_CELL];
    for (i, s) in samples.iter_mut().enumerate() {
        *s = i16::from_be_bytes([payload[8 + 2 * i], payload[8 + 2 * i + 1]]);
    }
    (ts, samples)
}

/// The ADC half: digitizes a deterministic tone and transmits cells at
/// the sample clock.
pub struct AudioSource {
    vci: Vci,
    tx: Rc<RefCell<Link>>,
    running: bool,
    sample_no: u64,
    /// Cells transmitted.
    pub cells_sent: u64,
}

impl AudioSource {
    /// Creates a source on `vci` transmitting through `tx`.
    pub fn new(vci: Vci, tx: Rc<RefCell<Link>>) -> Rc<RefCell<AudioSource>> {
        Rc::new(RefCell::new(AudioSource {
            vci,
            tx,
            running: false,
            sample_no: 0,
            cells_sent: 0,
        }))
    }

    /// The sample the ADC reads at index `n` — a pure sine tone, read
    /// from one period of it computed once.
    fn sample(n: u64) -> i16 {
        static TONE: OnceLock<[i16; TONE_PERIOD]> = OnceLock::new();
        let tone = TONE.get_or_init(|| std::array::from_fn(|k| tone_at(k as u64)));
        tone[(n % TONE_PERIOD as u64) as usize]
    }

    /// Starts capture.
    ///
    /// The sample clock is one chained handler, rescheduled by the engine
    /// for as long as the source runs — no allocations per cell period.
    pub fn start(src: &Rc<RefCell<AudioSource>>, sim: &mut Simulator) {
        {
            let mut s = src.borrow_mut();
            if s.running {
                return;
            }
            s.running = true;
        }
        let src2 = src.clone();
        sim.schedule_chain(move |sim| Self::tick(&src2, sim));
    }

    /// Stops capture after the in-flight cell.
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Captures one cell; returns the next tick time while running.
    fn tick(src: &Rc<RefCell<AudioSource>>, sim: &mut Simulator) -> Option<Ns> {
        let mut s = src.borrow_mut();
        if !s.running {
            return None;
        }
        let ts = sim.now();
        let mut samples = [0i16; SAMPLES_PER_CELL];
        let base = s.sample_no;
        for (i, slot) in samples.iter_mut().enumerate() {
            *slot = Self::sample(base + i as u64);
        }
        s.sample_no += SAMPLES_PER_CELL as u64;
        let cell = pack_cell(s.vci, ts, &samples);
        s.cells_sent += 1;
        let tx = s.tx.clone();
        tx.borrow_mut().send(sim, cell);
        Some(sim.now().saturating_add(CELL_PERIOD))
    }
}

/// Counters the DAC keeps.
#[derive(Debug, Default, Clone)]
pub struct SinkStats {
    /// Cells received.
    pub cells_received: u64,
    /// Samples played to the DAC.
    pub samples_played: u64,
    /// Play-out instants with an empty buffer (audible drop-outs).
    pub underruns: u64,
    /// Samples discarded because the buffer was full.
    pub overruns: u64,
    /// Capture-to-play-out latency per consumed cell.
    pub playout_latency: Histogram,
}

/// The DAC half: buffers arriving cells and consumes them at the sample
/// clock once `target_depth` samples are queued.
pub struct AudioSink {
    queue: VecDeque<(Ns, [i16; SAMPLES_PER_CELL])>,
    queued_samples: usize,
    /// Samples to accumulate before play-out starts (the jitter buffer).
    pub target_depth: usize,
    /// Hard cap on buffered samples.
    pub max_depth: usize,
    playing: bool,
    /// Counters.
    pub stats: SinkStats,
}

impl AudioSink {
    /// Creates a sink with the given jitter-buffer depth (in samples).
    pub fn shared(target_depth: usize) -> Rc<RefCell<AudioSink>> {
        Rc::new(RefCell::new(AudioSink {
            queue: VecDeque::new(),
            queued_samples: 0,
            target_depth,
            max_depth: target_depth.max(SAMPLES_PER_CELL) * 64,
            playing: false,
            stats: SinkStats::default(),
        }))
    }

    /// Begins the play-out clock; it runs until `until`, consuming one
    /// cell's worth of samples per cell period once the buffer has filled
    /// to the target depth. One chained handler carries every tick.
    pub fn start_playout(sink: &Rc<RefCell<AudioSink>>, sim: &mut Simulator, until: Ns) {
        let sink2 = sink.clone();
        sim.schedule_chain(move |sim| Self::playout_tick(&sink2, sim, until));
    }

    /// Plays one cell period; returns the next tick time before `until`.
    fn playout_tick(sink: &Rc<RefCell<AudioSink>>, sim: &mut Simulator, until: Ns) -> Option<Ns> {
        let mut s = sink.borrow_mut();
        let now = sim.now();
        if !s.playing {
            // Wait for the buffer to fill before the first sample.
            s.playing = s.queued_samples >= s.target_depth.max(1);
        }
        if s.playing {
            if let Some((ts, _samples)) = s.queue.pop_front() {
                s.queued_samples -= SAMPLES_PER_CELL;
                s.stats.samples_played += SAMPLES_PER_CELL as u64;
                s.stats.playout_latency.record(now.saturating_sub(ts));
            } else {
                // Drop-out: the DAC plays silence for a cell period.
                s.stats.underruns += 1;
            }
        }
        (now + CELL_PERIOD <= until).then_some(now + CELL_PERIOD)
    }
}

impl CellSink for AudioSink {
    fn deliver(&mut self, _sim: &mut Simulator, cell: Cell) {
        self.stats.cells_received += 1;
        let (ts, samples) = unpack_cell(&cell);
        if self.queued_samples + SAMPLES_PER_CELL > self.max_depth {
            self.stats.overruns += SAMPLES_PER_CELL as u64;
            return;
        }
        self.queue.push_back((ts, samples));
        self.queued_samples += SAMPLES_PER_CELL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_atm::link::CaptureSink;
    use pegasus_sim::time::MS;

    #[test]
    fn pack_unpack_roundtrip() {
        let mut samples = [0i16; SAMPLES_PER_CELL];
        for (i, s) in samples.iter_mut().enumerate() {
            *s = (i as i16 - 10) * 1000;
        }
        let cell = pack_cell(9, 123_456, &samples);
        let (ts, back) = unpack_cell(&cell);
        assert_eq!(ts, 123_456);
        assert_eq!(back, samples);
        assert_eq!(cell.vci(), 9);
    }

    #[test]
    fn source_rate_matches_clock() {
        let capture = CaptureSink::shared();
        let tx = Rc::new(RefCell::new(Link::new(100_000_000, 0, capture.clone())));
        let src = AudioSource::new(5, tx);
        let mut sim = Simulator::new();
        AudioSource::start(&src, &mut sim);
        sim.run_until(1_000 * MS);
        src.borrow_mut().stop();
        sim.run();
        // 8000 samples/s ÷ 20 per cell = 400 cells/s.
        let cells = src.borrow().cells_sent;
        assert!((400..=401).contains(&cells), "cells={cells}");
    }

    #[test]
    fn clean_network_no_underruns() {
        let sink = AudioSink::shared(40); // 5 ms of buffer
        let tx = Rc::new(RefCell::new(Link::new(
            100_000_000,
            1_000,
            sink.clone() as pegasus_atm::link::SinkRef,
        )));
        let src = AudioSource::new(5, tx);
        let mut sim = Simulator::new();
        AudioSource::start(&src, &mut sim);
        AudioSink::start_playout(&sink, &mut sim, 2_000 * MS);
        sim.run_until(2_000 * MS);
        src.borrow_mut().stop();
        sim.run();
        let s = sink.borrow();
        assert_eq!(s.stats.underruns, 0, "clean delivery must not underrun");
        assert!(s.stats.samples_played > 10_000);
    }

    #[test]
    fn jitter_beyond_buffer_causes_underruns() {
        // Deliver cells with ±8 ms jitter into a 2.5 ms buffer.
        let sink = AudioSink::shared(SAMPLES_PER_CELL); // one cell of buffer
        let mut sim = Simulator::new();
        for i in 0..400u64 {
            let ideal = i * CELL_PERIOD;
            // Deterministic sawtooth jitter 0..8 ms.
            let jitter = (i % 5) * 2 * MS;
            let sink2 = sink.clone();
            let mut samples = [0i16; SAMPLES_PER_CELL];
            samples[0] = i as i16;
            let cell = pack_cell(5, ideal, &samples);
            sim.schedule_at(ideal + jitter, move |sim| {
                sink2.borrow_mut().deliver(sim, cell);
            });
        }
        AudioSink::start_playout(&sink, &mut sim, 1_100 * MS);
        sim.run();
        assert!(
            sink.borrow().stats.underruns > 0,
            "heavy jitter through a shallow buffer must cause drop-outs"
        );
    }

    #[test]
    fn deep_buffer_absorbs_the_same_jitter() {
        // 12 ms of buffer (96 samples) against 8 ms of jitter.
        let sink = AudioSink::shared(96);
        let mut sim = Simulator::new();
        for i in 0..400u64 {
            let ideal = i * CELL_PERIOD;
            let jitter = (i % 5) * 2 * MS;
            let sink2 = sink.clone();
            let cell = pack_cell(5, ideal, &[0i16; SAMPLES_PER_CELL]);
            sim.schedule_at(ideal + jitter, move |sim| {
                sink2.borrow_mut().deliver(sim, cell);
            });
        }
        AudioSink::start_playout(&sink, &mut sim, 1_000 * MS);
        sim.run();
        assert_eq!(
            sink.borrow().stats.underruns,
            0,
            "a buffer deeper than the jitter absorbs it"
        );
    }

    #[test]
    fn playout_latency_tracks_buffer_depth() {
        let shallow = AudioSink::shared(SAMPLES_PER_CELL);
        let deep = AudioSink::shared(160); // 20 ms
        for sink in [&shallow, &deep] {
            let mut sim = Simulator::new();
            for i in 0..200u64 {
                let t = i * CELL_PERIOD;
                let s2 = sink.clone();
                let cell = pack_cell(5, t, &[0i16; SAMPLES_PER_CELL]);
                sim.schedule_at(t, move |sim| s2.borrow_mut().deliver(sim, cell));
            }
            AudioSink::start_playout(sink, &mut sim, 600 * MS);
            sim.run();
        }
        let mut sh = shallow.borrow_mut();
        let mut de = deep.borrow_mut();
        let l_sh = sh.stats.playout_latency.percentile(50.0).unwrap();
        let l_de = de.stats.playout_latency.percentile(50.0).unwrap();
        assert!(
            l_de > l_sh + 10 * MS,
            "deep buffer latency {l_de} should exceed shallow {l_sh} by ≥10 ms"
        );
    }

    #[test]
    fn overrun_drops_when_buffer_full() {
        let sink = AudioSink::shared(SAMPLES_PER_CELL);
        sink.borrow_mut().max_depth = 3 * SAMPLES_PER_CELL;
        let mut sim = Simulator::new();
        // Never start play-out; flood the buffer.
        for i in 0..10u64 {
            let cell = pack_cell(5, i, &[0i16; SAMPLES_PER_CELL]);
            sink.borrow_mut().deliver(&mut sim, cell);
        }
        let s = sink.borrow();
        assert_eq!(s.stats.cells_received, 10);
        assert_eq!(s.stats.overruns, 7 * SAMPLES_PER_CELL as u64);
    }

    #[test]
    fn one_period_of_the_tone_is_the_tone_throughout_a_run() {
        // The longest preset runs 1.5 s and drains for 0.1 s more.
        const LONGEST_RUN_SAMPLES: u64 = 1_600 * SAMPLE_RATE as u64 / 1_000;
        for n in 0..LONGEST_RUN_SAMPLES {
            assert_eq!(AudioSource::sample(n), tone_at(n), "sample {n}");
        }
    }

    #[test]
    fn tone_is_deterministic_sine() {
        let capture = CaptureSink::shared();
        let tx = Rc::new(RefCell::new(Link::new(100_000_000, 0, capture.clone())));
        let src = AudioSource::new(5, tx);
        let mut sim = Simulator::new();
        AudioSource::start(&src, &mut sim);
        sim.run_until(100 * MS);
        src.borrow_mut().stop();
        sim.run();
        let arrivals = &capture.borrow().arrivals;
        assert!(!arrivals.is_empty());
        let (_, samples) = unpack_cell(&arrivals[0].1);
        // 440 Hz at 8 kHz: first sample 0, then rising.
        assert_eq!(samples[0], 0);
        assert!(samples[1] > 0);
        let peak = samples.iter().map(|s| s.unsigned_abs()).max().unwrap();
        assert!(peak <= 12_000);
    }
}
