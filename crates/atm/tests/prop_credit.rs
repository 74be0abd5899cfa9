//! Property test for credit-based VC flow control: conservation.
//!
//! Whatever interleaving of acquires, releases and reclaims a window
//! sees, every credit ever spent is either still in flight, returned by
//! the consumer, or reclaimed after a drop — and the in-flight count
//! never exceeds the window. What credits do to real traffic — returns
//! due one reverse crossing after delivery, drops reclaimed, a queue
//! bounded by the windows through it — is refereed cell for cell by
//! `oracle_fabric.rs`.

use proptest::prelude::*;

use pegasus_atm::credit::CreditWindow;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation holds after every operation of any
    /// acquire/release/reclaim interleaving, and in-flight never
    /// exceeds the window.
    #[test]
    fn credits_conserve_under_any_interleaving(
        window in 1u64..64,
        ops in prop::collection::vec((0u8..3, 1u64..32), 1..200),
    ) {
        let w = CreditWindow::shared(window);
        for (kind, n) in ops {
            let mut w = w.borrow_mut();
            match kind {
                0 => {
                    let before = w.in_flight();
                    let ok = w.try_acquire(n);
                    // All-or-nothing: success adds exactly n, failure nothing.
                    let expect = if ok { before + n } else { before };
                    prop_assert_eq!(w.in_flight(), expect);
                }
                1 => {
                    let n = n.min(w.in_flight());
                    w.release(n);
                }
                _ => {
                    let n = n.min(w.in_flight());
                    w.reclaim(n);
                }
            }
            prop_assert!(w.conserved(), "consumed != in_flight + returned + reclaimed");
            prop_assert!(w.in_flight() <= window, "window overrun");
            prop_assert!(w.peak_in_flight() <= window);
        }
    }
}
