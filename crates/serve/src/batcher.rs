//! Micro-batching parameters.
//!
//! The serving inversion of the paper's small-batch thesis: training
//! wants small batches for statistical efficiency, but a forward pass
//! over one request wastes the hardware. Serving workers (the
//! `crossbow-fleet` pools) therefore coalesce queued requests into a
//! batch, flushing when either `max_batch` requests are in hand or the
//! *oldest* request has waited `max_delay` — so a burst pays one
//! efficient forward pass and a trickle still meets its latency bound.

use std::time::Duration;

/// Micro-batching parameters.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Flush once this many requests are coalesced.
    pub max_batch: usize,
    /// Flush once the oldest queued request has waited this long.
    pub max_delay: Duration,
    /// Bounded request-queue capacity; a full queue rejects new
    /// submissions with `Overloaded` (admission control).
    pub queue_depth: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 16,
            max_delay: Duration::from_millis(2),
            queue_depth: 256,
        }
    }
}

impl BatchConfig {
    /// The batch=1 baseline: no coalescing, every request is its own
    /// forward pass.
    pub fn unbatched() -> Self {
        BatchConfig {
            max_batch: 1,
            ..BatchConfig::default()
        }
    }
}
