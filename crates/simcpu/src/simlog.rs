//! The simulated commit log: a publish index and a reader registry.
//!
//! The native `CommitLog` answers "was this range stamped after my
//! snapshot?" with one per-range lookup, and finds the readers a commit
//! must doom in the stamped range's reader set (`take_readers`).  This is
//! the simulator's equivalent.  Every conflict question the scheduler
//! asks has the form "how many publishes touched this word / range id
//! after virtual time `t`?", and the answer only ever matters up to the
//! version-ring depth, so instead of a log of publish batches (searched
//! per reader, per read) the log keeps, per word, the latest publish time
//! and, per range id, one slot with the latest `ring_depth` publish times
//! and the live speculative fibers registered as readers.  A word lookup
//! is one index into a dense array (`addr / 8`; time 0, a word never
//! published, is "since" nothing), a range lookup one hash probe.
//!
//! The maps here and in the scheduler hash with [`WordHasher`]: keys are
//! range ids, regions and fiber indices the program itself produced, so a
//! collision-resistant (and per-process random) SipHash buys nothing and
//! costs most of a replay.

use std::hash::{BuildHasherDefault, Hasher};

use mutls_membuf::{Addr, WORD_BYTES};

/// Deterministic multiplicative (Fibonacci) hasher for integer keys.
/// The high half of the product is folded down because word addresses are
/// multiples of 8 and the table indexes buckets with the low bits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = product ^ (product >> 32);
    }

    fn write_usize(&mut self, key: usize) {
        self.write_u64(key as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map with the deterministic [`WordHasher`].
pub(crate) type DetMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Range slots below which a fossil sweep is not worth a pass.
const MIN_SWEEP_SLOTS: usize = 1024;

/// What the log keeps per range id — the sim's version ring and reader
/// set of one commit-log slot.
#[derive(Debug, Default)]
struct RangeSlot {
    /// Latest `depth` publish times, newest first.
    times: Vec<u64>,
    /// Live speculative fibers registered under this range id.
    readers: Vec<usize>,
}

/// Publish times by word and by range id, and readers by range id (see
/// the module docs).  Range ids are the scheduler's region-prefixed ids
/// at the grain live when the publish or the read happened.
#[derive(Debug)]
pub(crate) struct SimLog {
    /// Latest publish time by word index (`addr / 8`), 0 where none;
    /// grown on demand by `record`.
    words: Vec<u64>,
    ranges: DetMap<u64, RangeSlot>,
    /// Times kept per range: the version-ring depth.
    depth: usize,
    /// Range-slot count at which the next fossil sweep runs, so sweeping
    /// stays amortized O(1) per slot however often it is offered.
    sweep_at: usize,
}

impl SimLog {
    pub(crate) fn new(ring_depth: u32) -> Self {
        SimLog {
            words: Vec::new(),
            ranges: DetMap::default(),
            depth: ring_depth.max(1) as usize,
            sweep_at: MIN_SWEEP_SLOTS,
        }
    }

    /// Record one publish batch: `words` written and `ranges` stamped
    /// (each distinct id once) at virtual time `time`.  Publish times are
    /// not monotone in call order — a joiner's clock runs ahead of the
    /// event queue — so "latest" is by time, not by arrival.
    pub(crate) fn record(&mut self, time: u64, words: &[Addr], ranges: &[u64]) {
        for &word in words {
            let idx = (word / WORD_BYTES) as usize;
            if idx >= self.words.len() {
                self.words.resize(idx + 1, 0);
            }
            let latest = &mut self.words[idx];
            *latest = (*latest).max(time);
        }
        for &range in ranges {
            let times = &mut self.ranges.entry(range).or_default().times;
            let at = times.partition_point(|&t| t > time);
            if at < self.depth {
                times.truncate(self.depth - 1);
                times.insert(at, time);
            }
        }
    }

    /// Whether `word` was published after `since`.
    pub(crate) fn word_since(&self, word: Addr, since: u64) -> bool {
        let idx = (word / WORD_BYTES) as usize;
        self.words.get(idx).is_some_and(|&t| t > since)
    }

    /// Publishes that stamped `range` after `since`, counted up to the
    /// ring depth — every caller compares the count against at most that.
    pub(crate) fn range_since(&self, range: u64, since: u64) -> usize {
        self.ranges.get(&range).map_or(0, |slot| {
            slot.times.iter().take_while(|&&t| t > since).count()
        })
    }

    /// The fibers registered as readers of `range`.
    pub(crate) fn readers(&self, range: u64) -> &[usize] {
        self.ranges.get(&range).map_or(&[], |slot| &slot.readers)
    }

    /// Register fiber `fid`, not yet a reader of `range`, as one.
    pub(crate) fn register(&mut self, range: u64, fid: usize) {
        let readers = &mut self.ranges.entry(range).or_default().readers;
        debug_assert!(!readers.contains(&fid));
        readers.push(fid);
    }

    /// Remove fiber `fid` from the readers of `range`.
    pub(crate) fn unregister(&mut self, range: u64, fid: usize) {
        let readers = &mut self
            .ranges
            .get_mut(&range)
            .expect("registered range")
            .readers;
        let at = readers
            .iter()
            .position(|&f| f == fid)
            .expect("registered reader");
        readers.swap_remove(at);
    }

    /// Fossil collection: drop every range with no reader left whose
    /// latest publish is at or below `horizon` — no lookup with `since >=
    /// horizon` can count it.  Words are not swept: a time at or below the
    /// horizon already answers every such lookup as an absent word would.
    pub(crate) fn prune(&mut self, horizon: u64) {
        if self.ranges.len() < self.sweep_at {
            return;
        }
        self.ranges.retain(|_, slot| {
            !slot.readers.is_empty() || slot.times.first().is_some_and(|&t| t > horizon)
        });
        self.sweep_at = (2 * self.ranges.len()).max(MIN_SWEEP_SLOTS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_counts_are_by_time_and_capped_at_the_ring_depth() {
        let mut log = SimLog::new(2);
        log.record(50, &[8, 16], &[1]);
        // A later call with an earlier time: the joiner's clock ran ahead.
        log.record(30, &[8], &[1, 2]);
        log.record(70, &[24], &[1]);
        assert!(log.word_since(8, 49));
        assert!(!log.word_since(8, 50), "latest is by time, not arrival");
        assert!(!log.word_since(32, 0));
        // Three publishes stamped range 1; depth 2 keeps 70 and 50.
        assert_eq!(log.range_since(1, 0), 2);
        assert_eq!(log.range_since(1, 50), 1);
        assert_eq!(log.range_since(1, 70), 0);
        assert_eq!(log.range_since(2, 29), 1);
        assert_eq!(log.range_since(3, 0), 0);
    }

    #[test]
    fn a_word_past_the_index_was_never_published() {
        let mut log = SimLog::new(4);
        assert!(!log.word_since(64, 0));
        assert!(!log.word_since(!7, 0));
        log.record(5, &[80], &[]);
        assert_eq!(log.words.len(), 11);
        assert!(log.word_since(80, 4));
        assert!(!log.word_since(72, 0), "a word the growth skipped");
        assert!(!log.word_since(88, 0));
    }

    #[test]
    fn a_publish_at_time_zero_is_since_nothing() {
        let mut log = SimLog::new(4);
        log.record(0, &[8, 128], &[1]);
        assert!(!log.word_since(8, 0));
        assert!(!log.word_since(128, 0));
        assert_eq!(log.range_since(1, 0), 0);
        // And it never hides a later publish of the same word.
        log.record(3, &[8], &[]);
        log.record(0, &[8], &[]);
        assert!(log.word_since(8, 2));
    }

    #[test]
    fn pruning_drops_only_what_no_later_lookup_can_count() {
        let mut log = SimLog::new(4);
        for word in 0..MIN_SWEEP_SLOTS as u64 {
            log.record(10, &[word * 8], &[word]);
        }
        log.record(20, &[0], &[0]);
        log.prune(10);
        // Ranges are swept; words are kept and answer as absent ones would.
        assert_eq!(log.ranges.len(), 1);
        assert_eq!(log.words.len(), MIN_SWEEP_SLOTS);
        assert!(log.word_since(0, 10));
        assert!(!log.word_since(8, 10));
        assert_eq!(log.range_since(0, 10), 1);
        // Below the doubled threshold a sweep is skipped.
        log.record(30, &[8], &[1]);
        log.prune(1000);
        assert_eq!(log.ranges.len(), 2);
        assert!(log.word_since(8, 20));
        // Words do not count towards the threshold: one range slot over
        // twice as many words as a sweep needs is not swept.
        let mut words_only = SimLog::new(4);
        for word in 0..2 * MIN_SWEEP_SLOTS as u64 {
            words_only.record(10, &[word * 8], &[0]);
        }
        words_only.prune(10);
        assert_eq!(words_only.ranges.len(), 1);
    }

    #[test]
    fn readers_come_and_go_and_keep_a_range_alive() {
        let mut log = SimLog::new(4);
        log.register(7, 3);
        log.register(7, 5);
        assert_eq!(log.readers(7), [3, 5]);
        assert!(log.readers(8).is_empty());
        log.unregister(7, 3);
        assert_eq!(log.readers(7), [5]);
        // Only a slot with neither a reader nor a countable publish goes.
        for word in 0..MIN_SWEEP_SLOTS as u64 {
            log.record(10, &[word * 8], &[100 + word]);
        }
        log.prune(10);
        assert_eq!(log.ranges.len(), 1);
        log.unregister(7, 5);
        log.sweep_at = 0;
        log.prune(10);
        assert!(log.ranges.is_empty());
    }

    #[test]
    fn hasher_spreads_word_addresses_over_the_low_bits() {
        use std::collections::BTreeSet;
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<WordHasher>::default();
        let low: BTreeSet<u64> = (0..64u64).map(|i| build.hash_one(i * 8) & 63).collect();
        assert!(low.len() > 32, "only {} of 64 low-bit buckets", low.len());
    }
}
