//! Index construction configuration.

/// Configuration of the ST-Index and Con-Index construction.
///
/// Persisted in a snapshot's `config` section (all fields but
/// `read_latency_us`). It names no storage backend: a reopened snapshot
/// always serves its sealed heap through the file page store.
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Temporal granularity Δt in seconds (the paper evaluates
    /// Δt ∈ {1, 5, 10, 20} minutes; 5 minutes is the default).
    pub slot_s: u32,
    /// Buffer-pool capacity, in pages, for the posting store backing the
    /// ST-Index time lists.
    pub pool_pages: usize,
    /// Ignored, not persisted: no page read is delayed. Kept only so
    /// existing callers that set it still compile.
    pub read_latency_us: u64,
    /// Fallback minimum speed (m/s) used in Near-list construction for
    /// segments with no historical observation in a slot.
    pub fallback_min_speed_ms: f64,
    /// Number of automatic retries (deterministic doubling backoff) the
    /// posting buffer pool makes when a physical page read fails with a
    /// *transient* error (`EIO`-class). `0` surfaces every fault
    /// immediately.
    pub read_retries: u32,
    /// Delta-tail growth ([`crate::DeltaStats::delta_bytes`]: bytes of
    /// merged lists folded in since the base was sealed) at which the background
    /// maintenance worker ([`crate::maintenance`]) triggers an automatic
    /// incremental checkpoint of the serving engine. `0` disables
    /// auto-checkpointing; the worker then only compacts.
    pub auto_checkpoint_bytes: u64,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            slot_s: 300,
            pool_pages: 256,
            read_latency_us: 0,
            fallback_min_speed_ms: 2.0,
            read_retries: streach_storage::DEFAULT_READ_RETRIES,
            auto_checkpoint_bytes: 8 * 1024 * 1024,
        }
    }
}

impl IndexConfig {
    /// Number of Δt slots in one day.
    pub fn slots_per_day(&self) -> u32 {
        streach_traj::SECONDS_PER_DAY.div_ceil(self.slot_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_five_minute_slots() {
        let cfg = IndexConfig::default();
        assert_eq!(cfg.slot_s, 300);
        assert_eq!(cfg.slots_per_day(), 288);
    }

    #[test]
    fn slots_per_day_rounds_up() {
        let cfg = IndexConfig {
            slot_s: 7 * 60,
            ..IndexConfig::default()
        };
        assert_eq!(cfg.slots_per_day(), 206); // ceil(1440 / 7)
    }

    #[test]
    fn one_minute_granularity() {
        let cfg = IndexConfig {
            slot_s: 60,
            ..IndexConfig::default()
        };
        assert_eq!(cfg.slots_per_day(), 1440);
    }
}
