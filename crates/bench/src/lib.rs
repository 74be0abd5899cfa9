//! The experiment suite as checked claims.
//!
//! Each `e*` module regenerates one claim of the Pegasus paper in
//! deterministic virtual time and returns it as a [`Claim`]. The
//! `scorecard` binary renders every claim as `docs/SCORECARD.md`, and
//! `cargo test` runs each experiment and fails it, by name, when its claim
//! does not hold or its rows differ from that file. After an intended
//! change, re-bless with
//! `cargo run -q -p pegasus-bench --bin scorecard > docs/SCORECARD.md`.

use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs, SEGMENT_BYTES};

/// What an experiment can fail with: an error of the layer it drives.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// One claim of the paper, measured.
#[derive(Debug)]
pub struct Claim {
    /// Experiment id, `E1` … `E21`.
    pub id: &'static str,
    /// What the experiment measures.
    pub title: &'static str,
    /// The paper sentence or figure the experiment measures.
    pub anchor: &'static str,
    /// The shape the rows show if the claim is right.
    pub expected_shape: &'static str,
    /// The measured table, one line per row.
    pub rows: Vec<String>,
    /// The numbers `holds` judges, in a phrase.
    pub measured: String,
    /// Whether `rows` have `expected_shape`.
    pub holds: bool,
}

/// Declares the experiment modules, [`EXPERIMENTS`] in scorecard order,
/// and one test per experiment, so that the tests run in parallel.
macro_rules! experiments {
    ($($experiment:ident),*) => {
        $(pub mod $experiment;)*

        /// Every experiment, in scorecard order.
        pub const EXPERIMENTS: &[fn() -> Result<Claim>] = &[$($experiment::claim),*];

        #[cfg(test)]
        mod claims {
            $(#[test]
            fn $experiment() {
                crate::tests::check(super::$experiment::claim);
            })*
        }
    };
}

#[rustfmt::skip]
experiments![
    e01_tile_latency, e02_camera_pipeline, e03_display, e04_videophone_path, e05_scheduler,
    e06_qos_manager, e07_activations, e08_events, e09_kps, e10_single_as, e11_naming,
    e12_storage_throughput, e13_cleaner, e14_write_behind, e15_cm_caching, e16_av_sync,
    e17_audio_jitter, e21_cache_tiers
];

const PREAMBLE: &str = "# Scorecard

Generated by `cargo run -q -p pegasus-bench --bin scorecard > docs/SCORECARD.md`
from the experiments in `crates/bench`; `cargo test` holds every claim and row.
Virtual time: the same on every host. \"~N orders of magnitude\": log10 rounds to N.

| id | paper anchor | expected shape | measured | holds |
|---|---|---|---|---|
";

impl Claim {
    fn summary_row(&self) -> String {
        let holds = if self.holds { "yes" } else { "no" };
        let cells = [self.id, self.anchor, self.expected_shape, &self.measured];
        format!("| {} | {holds} |\n", cells.join(" | "))
    }

    /// The experiment's heading and its rows as an indented code block,
    /// closed by a blank line so that no prefix of it is a section.
    fn section(&self) -> String {
        let rows: String = self.rows.iter().map(|row| format!("    {row}\n")).collect();
        format!("## {}: {}\n{rows}\n", self.id, self.title)
    }
}

/// Renders `claims` as the scorecard: the summary table, then each
/// experiment's rows.
pub fn render(claims: &[Claim]) -> String {
    let mut out = String::from(PREAMBLE);
    out.extend(claims.iter().map(Claim::summary_row));
    out.extend(claims.iter().map(Claim::section));
    out
}

/// Orders of magnitude between `big` and `small`, rounded.
fn orders(big: f64, small: f64) -> f64 {
    (big / small).log10().round()
}

/// A timing-only log file system holding `files` continuous-media files
/// of `segments` whole segments each, flushed to the array.
fn log_fs(files: usize, segments: usize) -> Result<(LogFs, Vec<FileId>)> {
    let mut fs = LogFs::new(DiskConfig::hp_1994());
    fs.raid_mut().set_store(false);
    let mut ids = Vec::with_capacity(files);
    for _ in 0..files {
        let id = fs.create(FileClass::Continuous);
        for _ in 0..segments {
            fs.append(id, &vec![0u8; SEGMENT_BYTES])?;
        }
        ids.push(id);
    }
    fs.sync()?;
    Ok((fs, ids))
}

#[cfg(test)]
mod tests {
    const COMMITTED: &str = include_str!("../../../docs/SCORECARD.md");

    /// Fails, naming the experiment, when its claim does not hold or its
    /// section or summary row differs from the committed scorecard.
    pub(crate) fn check(experiment: fn() -> super::Result<super::Claim>) {
        let claim = experiment().expect("the experiment runs");
        let (id, section, row) = (claim.id, claim.section(), claim.summary_row());
        assert!(claim.holds, "{id} does not hold: {}", claim.measured);
        // Re-bless: cargo run -q -p pegasus-bench --bin scorecard > docs/SCORECARD.md
        assert!(
            COMMITTED.contains(&section),
            "{id}: rows differ from the scorecard:\n{section}"
        );
        assert!(
            COMMITTED.contains(&row),
            "{id}: summary differs from the scorecard:\n{row}"
        );
    }
}
