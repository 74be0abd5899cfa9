//! Connection signalling: QoS descriptors and admission control.
//!
//! "Both data and control virtual circuits are established through the
//! normal mechanism of ATM signalling" (§2.2), and the network "can
//! provide latency guarantees for interactive multimedia data" (§1).
//! Guarantees come from admission control: a guaranteed-class connection
//! reserves peak bandwidth on every link of its path, and is refused when
//! a link would be oversubscribed.

/// Traffic classes a connection may request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceClass {
    /// Guaranteed peak-rate service; admission-controlled.
    Guaranteed,
    /// Best-effort service; never reserved, may see queueing and loss.
    BestEffort,
}

/// The QoS descriptor carried in a connection-setup request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSpec {
    /// Service class.
    pub class: ServiceClass,
    /// Peak cell-level bandwidth in bits per second (reserved when
    /// guaranteed).
    pub peak_bps: u64,
}

impl QosSpec {
    /// A guaranteed connection at `peak_bps`.
    pub fn guaranteed(peak_bps: u64) -> Self {
        QosSpec {
            class: ServiceClass::Guaranteed,
            peak_bps,
        }
    }

    /// A best-effort connection (advisory rate only).
    pub fn best_effort(peak_bps: u64) -> Self {
        QosSpec {
            class: ServiceClass::BestEffort,
            peak_bps,
        }
    }
}

/// Why a connection request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// A link on the path had insufficient unreserved bandwidth.
    InsufficientBandwidth {
        /// Human-readable identity of the saturated link.
        link: String,
        /// Bandwidth requested, bits/second.
        requested: u64,
        /// Bandwidth still unreserved, bits/second.
        available: u64,
    },
    /// No path exists between the endpoints.
    NoRoute,
    /// An endpoint identifier was unknown.
    UnknownEndpoint,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::InsufficientBandwidth {
                link,
                requested,
                available,
            } => write!(
                f,
                "link {link}: requested {requested} bit/s but only {available} available"
            ),
            AdmissionError::NoRoute => write!(f, "no route between endpoints"),
            AdmissionError::UnknownEndpoint => write!(f, "unknown endpoint"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Per-link bandwidth bookkeeping.
///
/// Reservations are capped at a configurable fraction of the raw line
/// rate, leaving headroom for signalling and best-effort traffic. The
/// ledger only records: whether a call's reservations fit is decided
/// before any is charged, by [`crate::network::Network::check_vcs`]. The
/// ledger only records: whether a reservation fits is decided before it
/// is charged, for a whole call at once, by
/// [`crate::network::Network::check_vcs`].
#[derive(Debug, Clone)]
pub struct AdmissionController {
    capacity_bps: u64,
    reservable_bps: u64,
    reserved_bps: u64,
}

impl AdmissionController {
    /// Creates a controller for a link of `capacity_bps`, allowing
    /// guaranteed reservations up to `reservable_fraction` of it.
    pub fn new(capacity_bps: u64, reservable_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&reservable_fraction));
        AdmissionController {
            capacity_bps,
            reservable_bps: (capacity_bps as f64 * reservable_fraction) as u64,
            reserved_bps: 0,
        }
    }

    /// Raw line rate.
    pub(crate) fn capacity_bps(&self) -> u64 {
        self.capacity_bps
    }

    /// Bandwidth currently reserved by guaranteed connections.
    pub(crate) fn reserved_bps(&self) -> u64 {
        self.reserved_bps
    }

    /// Bandwidth still available to new guaranteed connections.
    pub(crate) fn available_bps(&self) -> u64 {
        self.reservable_bps.saturating_sub(self.reserved_bps)
    }

    /// Reserves `bps`, which a check has already found room for.
    pub(crate) fn charge(&mut self, bps: u64) {
        self.reserved_bps += bps;
    }

    /// Releases a previous reservation.
    pub fn release(&mut self, bps: u64) {
        self.reserved_bps = self.reserved_bps.saturating_sub(bps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_until_full() {
        let mut ac = AdmissionController::new(100_000_000, 0.9);
        assert_eq!(ac.available_bps(), 90_000_000);
        ac.charge(50_000_000);
        ac.charge(40_000_000);
        assert_eq!(ac.available_bps(), 0);
        assert_eq!(ac.reserved_bps(), 90_000_000);
    }

    #[test]
    fn release_returns_capacity() {
        let mut ac = AdmissionController::new(10_000, 1.0);
        ac.charge(10_000);
        ac.release(4_000);
        assert_eq!(ac.available_bps(), 4_000);
        ac.charge(4_000);
        assert_eq!(ac.available_bps(), 0);
    }

    #[test]
    fn release_saturates() {
        let mut ac = AdmissionController::new(10_000, 1.0);
        ac.release(99_999);
        assert_eq!(ac.reserved_bps(), 0);
        assert_eq!(ac.available_bps(), 10_000);
    }

    #[test]
    fn qos_constructors() {
        let g = QosSpec::guaranteed(1_000_000);
        assert_eq!(g.class, ServiceClass::Guaranteed);
        let b = QosSpec::best_effort(0);
        assert_eq!(b.class, ServiceClass::BestEffort);
    }

    #[test]
    fn error_display() {
        let e = AdmissionError::InsufficientBandwidth {
            link: "sw0:1".into(),
            requested: 10,
            available: 5,
        };
        let s = e.to_string();
        assert!(s.contains("sw0:1") && s.contains("10") && s.contains('5'));
        assert_eq!(
            AdmissionError::NoRoute.to_string(),
            "no route between endpoints"
        );
    }
}
