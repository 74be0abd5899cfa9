//! Shared helpers for the experiment benches.
//!
//! Every `e*` bench target is a `harness = false` binary that regenerates
//! one figure/claim of the paper as a printed table — the README in this
//! crate lists all eighteen (e01–e17 and e21) and the paper claim each one
//! measures. These helpers keep the output format uniform.

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, anchor: &str) {
    println!();
    println!("== {id}: {title}");
    println!("   paper anchor: {anchor}");
    println!("{}", "-".repeat(72));
}

/// Prints one row of `label: value` pairs.
pub fn row(cells: &[(&str, String)]) {
    let line: Vec<String> = cells.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("  {}", line.join("  "));
}

/// Formats a rate in MB/s.
pub fn mbps(bytes_per_sec: f64) -> String {
    format!("{:.2} MB/s", bytes_per_sec / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_do_not_panic() {
        banner("E0", "smoke", "§0");
        row(&[("a", "1".into()), ("b", mbps(2.5e7))]);
    }
}
