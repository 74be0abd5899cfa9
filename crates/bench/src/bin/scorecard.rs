//! Prints the scorecard: every experiment's claim, rendered as
//! `docs/SCORECARD.md`.
//!
//! usage: cargo run -q -p pegasus-bench --bin scorecard > docs/SCORECARD.md

fn main() -> pegasus_bench::Result<()> {
    let claims = pegasus_bench::EXPERIMENTS
        .iter()
        .map(|experiment| experiment())
        .collect::<pegasus_bench::Result<Vec<_>>>()?;
    print!("{}", pegasus_bench::render(&claims));
    Ok(())
}
