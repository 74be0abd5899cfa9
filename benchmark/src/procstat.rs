//! Resident-set readings from `/proc/self/status`.

/// The `kB` value of `field` (for example `VmHWM`) in the text of a
/// `/proc/<pid>/status` file, in MB (2^20 bytes).
pub fn status_field_mb(status: &str, field: &str) -> Option<f64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))?;
    let kb: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status_field_mb(&status, "VmHWM").expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tpegasus-benchma\nUmask:\t0022\nVmPeak:\t  300000 kB\n\
                          VmHWM:\t  233472 kB\nVmRSS:\t  102400 kB\nThreads:\t1\n";

    #[test]
    fn reads_the_named_field_in_mb() {
        assert_eq!(status_field_mb(STATUS, "VmHWM"), Some(228.0));
        assert_eq!(status_field_mb(STATUS, "VmRSS"), Some(100.0));
    }

    #[test]
    fn a_missing_or_malformed_field_is_none() {
        assert_eq!(status_field_mb(STATUS, "VmSwap"), None);
        assert_eq!(status_field_mb("VmHWM:\tlots\n", "VmHWM"), None);
        // `Vm` is a prefix of other fields, never a field itself.
        assert_eq!(status_field_mb(STATUS, "Vm"), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mb() > 0.0);
    }
}
