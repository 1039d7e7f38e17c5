//! Cost model of the discrete-event multicore simulator.
//!
//! The simulator charges *virtual cycles* for work, memory operations and
//! every runtime phase the paper's breakdown figures report (find CPU,
//! fork, join, validation, commit, finalize).  Absolute values are not
//! meant to match the authors' AMD Opteron testbed; they are chosen so
//! that the *relative* behaviour — computation- vs. memory-intensive
//! scaling, speculative-path overhead composition, fork-model crossovers —
//! reproduces the shape of the paper's evaluation.

use serde::{Deserialize, Serialize};

/// Per-operation virtual-cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cycles per abstract work unit charged via `TlsContext::work`.
    pub work_unit: u64,
    /// Cycles per load on the non-speculative thread.
    pub load: u64,
    /// Cycles per store on the non-speculative thread.
    pub store: u64,
    /// Extra cycles per load/store when executed speculatively (software
    /// buffering overhead: hashing into the word map).
    pub buffered_access_overhead: u64,
    /// Cycles to scan for an idle CPU at a fork point.
    pub find_cpu: u64,
    /// Cycles to set up and dispatch a speculative thread (saving live
    /// locals, initializing `ThreadData`).
    pub fork: u64,
    /// Fixed cycles of synchronization bookkeeping at a join point.
    pub join: u64,
    /// Cycles per read-set word during validation (value comparison).
    pub validate_per_word: u64,
    /// Cycles per read-set *range* spent probing the shared commit log
    /// for a later-version stamp (the dependence-violation check that
    /// replaces injected rollbacks with real conflict detection).  The
    /// log is range-granular, so coarser grains probe fewer entries —
    /// this is the grain-dependent half of the validation cost.
    pub validate_log_lookup: u64,
    /// Cycles per write-set word during commit.
    pub commit_per_word: u64,
    /// Cycles per **CAS retry** on the commit path: one failed
    /// `compare_exchange` (cache-line bounce plus the re-read).  Charged
    /// per same-shard contender of the committing batch, so disjoint
    /// committers pay nothing.
    pub cas_retry: u64,
    /// Cycles per buffered word during finalization (buffer clearing).
    pub finalize_per_word: u64,
    /// Cycles a speculative thread needs from creation until it starts
    /// useful work (thread wake-up latency).
    pub spawn_latency: u64,
    /// Cycles per read-set word of a value-predict **retry**: the second
    /// validation pass that re-reads the conflicting words from main
    /// memory and re-stamps them.  The retry's total cost replaces a full
    /// squash-and-re-execute — the cheapest rung of the recovery ladder.
    pub retry_per_word: u64,
    /// Cycles per **version-ring probe** under mvcc validation: one
    /// packed-atomic load plus the footprint test that proves a later
    /// commit missed every word the thread read.  Charged per precise
    /// pass — cheaper than [`retry_per_word`](Self::retry_per_word)
    /// because no main-memory value re-read happens at all.
    pub ring_probe: u64,
    /// Cycles a committing writer spends per thread it **dooms** through
    /// the reader registry (enumerate the range's mask, set the doom
    /// flag).  Buys back the doomed thread's remaining conflict-window
    /// work, the second rung of the recovery ladder.
    pub doom_signal: u64,
    /// Cycles per floor-grain slot flushed by an adaptive-grain
    /// **regrain** (`CommitLog::regrain` stamps every slot of the region
    /// under the shard's slow-path lock); charged to the fiber whose commit
    /// triggered the controller tick, `slots × regrain_per_slot` per
    /// regrained region, plus `doom_signal` per reader the regrain
    /// dooms.  This is what the graincontrol sweep prices against the
    /// stamp traffic a coarser grain saves.
    pub regrain_per_slot: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            work_unit: 1,
            load: 2,
            store: 2,
            buffered_access_overhead: 6,
            find_cpu: 60,
            fork: 400,
            join: 200,
            validate_per_word: 4,
            validate_log_lookup: 2,
            commit_per_word: 4,
            cas_retry: 8,
            finalize_per_word: 1,
            spawn_latency: 300,
            retry_per_word: 3,
            ring_probe: 2,
            doom_signal: 30,
            regrain_per_slot: 1,
        }
    }
}

impl CostModel {
    /// Cycles for a segment executed non-speculatively.
    pub fn segment_cycles(&self, work: u64, loads: u64, stores: u64) -> u64 {
        work * self.work_unit + loads * self.load + stores * self.store
    }

    /// Cycles for a segment executed speculatively (buffered accesses).
    pub fn segment_cycles_speculative(&self, work: u64, loads: u64, stores: u64) -> u64 {
        self.segment_cycles(work, loads, stores) + (loads + stores) * self.buffered_access_overhead
    }

    /// Validation cost for a read-set of `words` entries tracked as
    /// `ranges` distinct commit-log ranges: the fixed join half-handshake
    /// plus, per word, the value comparison, plus, per *range*, the
    /// commit-log version probe — coarser grains probe fewer ranges.
    pub fn validation_cycles_grained(&self, words: u64, ranges: u64) -> u64 {
        self.join / 2 + words * self.validate_per_word + ranges * self.validate_log_lookup
    }

    /// Validation cost at word grain (one range per word) — the exact
    /// cost of the original per-word log.
    pub fn validation_cycles(&self, words: u64) -> u64 {
        self.validation_cycles_grained(words, words)
    }

    /// Commit cost for a write-set of `words` entries.
    pub fn commit_cycles(&self, words: u64) -> u64 {
        words * self.commit_per_word
    }

    /// Commit-path contention cost for a batch racing `retries`
    /// same-slot/same-region contenders (0 retries — the disjoint-range
    /// common case — is free).
    pub fn cas_retry_cycles(&self, retries: u64) -> u64 {
        retries * self.cas_retry
    }

    /// Finalization cost for `words` buffered entries.
    pub fn finalize_cycles(&self, words: u64) -> u64 {
        words * self.finalize_per_word
    }

    /// Value-predict retry cost for a read-set of `words` entries (the
    /// second, value-comparing validation pass).
    pub fn retry_cycles(&self, words: u64) -> u64 {
        words * self.retry_per_word
    }

    /// Cost of `probes` version-ring probes (mvcc precise validation).
    pub fn ring_probe_cycles(&self, probes: u64) -> u64 {
        probes * self.ring_probe
    }

    /// Cost of surgically dooming `threads` registered readers at commit
    /// time.
    pub fn doom_cycles(&self, threads: u64) -> u64 {
        threads * self.doom_signal
    }

    /// Cost of regraining one region whose slot block holds `slots`
    /// floor-grain slots (the whole-block conservative flush).
    pub fn regrain_cycles(&self, slots: u64) -> u64 {
        slots * self.regrain_per_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speculative_segments_cost_more() {
        let c = CostModel::default();
        assert!(c.segment_cycles_speculative(10, 5, 5) > c.segment_cycles(10, 5, 5));
        assert_eq!(c.segment_cycles(10, 0, 0), 10 * c.work_unit);
    }

    #[test]
    fn buffer_costs_scale_with_words() {
        let c = CostModel::default();
        assert!(c.validation_cycles(100) > c.validation_cycles(10));
        assert_eq!(c.commit_cycles(0), 0);
        assert_eq!(c.finalize_cycles(3), 3 * c.finalize_per_word);
    }

    #[test]
    fn validation_charges_the_commit_log_probe() {
        let cheap = CostModel {
            validate_log_lookup: 0,
            ..CostModel::default()
        };
        let mut probed = cheap;
        probed.validate_log_lookup = 3;
        assert_eq!(
            probed.validation_cycles(10) - cheap.validation_cycles(10),
            30
        );
    }

    #[test]
    fn grained_validation_charges_probes_per_range_not_per_word() {
        let c = CostModel::default();
        // 64 words collapsing into 8 ranges probe the log 8 times.
        assert_eq!(
            c.validation_cycles(64) - c.validation_cycles_grained(64, 8),
            (64 - 8) * c.validate_log_lookup
        );
        // Word grain is the degenerate case.
        assert_eq!(c.validation_cycles(64), c.validation_cycles_grained(64, 64));
    }

    #[test]
    fn cas_retries_scale_with_contenders() {
        let c = CostModel::default();
        assert_eq!(c.cas_retry_cycles(0), 0, "disjoint committers are free");
        assert_eq!(c.cas_retry_cycles(5), 5 * c.cas_retry);
    }

    #[test]
    fn recovery_costs_scale_and_stay_below_a_squash() {
        let c = CostModel::default();
        assert_eq!(c.retry_cycles(0), 0);
        assert_eq!(c.retry_cycles(10), 10 * c.retry_per_word);
        assert_eq!(c.doom_cycles(3), 3 * c.doom_signal);
        assert_eq!(c.ring_probe_cycles(4), 4 * c.ring_probe);
        // The mvcc premise: a ring probe (no memory re-read) undercuts
        // even the value-predict retry it replaces.
        assert!(c.ring_probe < c.retry_per_word);
        // The recovery ladder's premise: retrying a 100-word read set is
        // far cheaper than re-executing even a small segment.
        assert!(c.retry_cycles(100) < c.segment_cycles(1000, 100, 100));
    }

    #[test]
    fn regrain_cost_scales_with_the_flushed_block() {
        let c = CostModel::default();
        assert_eq!(c.regrain_cycles(0), 0);
        assert_eq!(c.regrain_cycles(512), 512 * c.regrain_per_slot);
        // A regrain flush (one pass over a region's slots) must stay far
        // below re-executing the region's worth of work — otherwise the
        // controller could never pay for itself.
        assert!(c.regrain_cycles(512) < c.segment_cycles(4096, 512, 512));
    }

    #[test]
    fn default_serializes() {
        let c = CostModel::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: CostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
