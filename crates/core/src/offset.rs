//! Four-timestamp offset/delay measurement.
//!
//! The paper's protocol replies with `⟨C, E⟩` and charges the whole
//! round-trip to the error budget. Its reference [Mills 81] measures
//! more sharply: with the request-send, request-receive, reply-send,
//! and reply-receive timestamps
//!
//! ```text
//! T1 — request leaves the client   (client clock)
//! T2 — request reaches the server  (server clock)
//! T3 — reply leaves the server     (server clock)
//! T4 — reply reaches the client    (client clock)
//! ```
//!
//! the apparent clock offset and the path delay are
//!
//! ```text
//! θ = ((T2 − T1) + (T3 − T4)) / 2        δ = (T4 − T1) − (T3 − T2)
//! ```
//!
//! `θ` is exact when the outbound and return delays are equal; an
//! asymmetry of `a` seconds biases it by at most `a/2 ≤ δ/2` — which is
//! why the [`crate::filter::ClockFilter`] prefers minimum-delay samples.

use std::fmt;

use crate::time::{Duration, Timestamp};

/// The four timestamps of one request/reply exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FourTimestamps {
    /// Request transmission, client clock.
    pub t1: Timestamp,
    /// Request reception, server clock.
    pub t2: Timestamp,
    /// Reply transmission, server clock.
    pub t3: Timestamp,
    /// Reply reception, client clock.
    pub t4: Timestamp,
}

impl FourTimestamps {
    /// Packages the four timestamps of an exchange.
    ///
    /// # Panics
    ///
    /// Panics if either clock runs backward within the exchange
    /// (`t4 < t1` or `t3 < t2`).
    #[must_use]
    pub fn new(t1: Timestamp, t2: Timestamp, t3: Timestamp, t4: Timestamp) -> Self {
        assert!(t4 >= t1, "reply received before the request was sent");
        assert!(t3 >= t2, "reply sent before the request arrived");
        FourTimestamps { t1, t2, t3, t4 }
    }

    /// The apparent server-minus-client clock offset
    /// `θ = ((T2 − T1) + (T3 − T4)) / 2`.
    #[must_use]
    pub fn offset(&self) -> Duration {
        ((self.t2 - self.t1) + (self.t3 - self.t4)).half()
    }

    /// The round-trip path delay `δ = (T4 − T1) − (T3 − T2)` (the
    /// exchange duration minus the server's processing time).
    #[must_use]
    pub fn delay(&self) -> Duration {
        (self.t4 - self.t1) - (self.t3 - self.t2)
    }

    /// The server's processing time `T3 − T2`.
    #[must_use]
    pub fn processing(&self) -> Duration {
        self.t3 - self.t2
    }
}

impl fmt::Display for FourTimestamps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "θ = {}, δ = {}", self.offset(), self.delay())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn symmetric_path_measures_exact_offset() {
        // Server clock 0.5 s ahead; 10 ms each way; no processing time.
        // T1=100 (client), request arrives at real 100.01 → server reads
        // 100.51; reply arrives at client at 100.02.
        let four = FourTimestamps::new(ts(100.0), ts(100.51), ts(100.51), ts(100.02));
        assert!((four.offset().as_secs() - 0.5).abs() < 1e-12);
        assert!((four.delay().as_secs() - 0.02).abs() < 1e-12);
        assert_eq!(four.processing(), Duration::ZERO);
    }

    #[test]
    fn processing_time_is_subtracted_from_delay() {
        // Same as above but the server takes 5 ms to answer.
        let four = FourTimestamps::new(ts(100.0), ts(100.51), ts(100.515), ts(100.025));
        assert!((four.delay().as_secs() - 0.02).abs() < 1e-12);
        assert!((four.processing().as_secs() - 0.005).abs() < 1e-12);
        // Offset unchanged by symmetric processing.
        assert!((four.offset().as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn asymmetry_bias_is_bounded_by_half_delay() {
        // 20 ms out, 0 ms back: the offset is biased by 10 ms — exactly
        // the uncertainty bound.
        let true_offset = 0.5;
        let four = FourTimestamps::new(
            ts(100.0),
            ts(100.0 + 0.020 + true_offset),
            ts(100.0 + 0.020 + true_offset),
            ts(100.020),
        );
        let bias = (four.offset().as_secs() - true_offset).abs();
        assert!((bias - 0.010).abs() < 1e-12);
        assert!(bias <= four.delay().as_secs() / 2.0 + 1e-12);
    }

    #[test]
    fn negative_offset_for_slow_server() {
        let four = FourTimestamps::new(ts(100.0), ts(99.51), ts(99.51), ts(100.02));
        assert!((four.offset().as_secs() + 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "before the request was sent")]
    fn client_clock_must_not_regress() {
        let _ = FourTimestamps::new(ts(100.0), ts(100.0), ts(100.0), ts(99.0));
    }

    #[test]
    #[should_panic(expected = "before the request arrived")]
    fn server_clock_must_not_regress() {
        let _ = FourTimestamps::new(ts(100.0), ts(101.0), ts(100.5), ts(100.1));
    }

    #[test]
    fn display() {
        let four = FourTimestamps::new(ts(0.0), ts(0.0), ts(0.0), ts(0.0));
        let s = four.to_string();
        assert!(s.contains('θ') && s.contains('δ'));
    }
}
