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
//! published, is "since" nothing), so "was any word of this run published
//! after `t`?" is one pass over a slice of it.  The latest publish time per
//! range id is kept the same way, so a segment whose ranges were all left
//! alone is cleared without a probe; a count of a range's publishes is one
//! hash probe.
//!
//! The maps here and in the scheduler hash with [`WordHasher`]: keys are
//! range ids, regions and fiber indices the program itself produced, so a
//! collision-resistant (and per-process random) SipHash buys nothing and
//! costs most of a replay.

use std::hash::{BuildHasherDefault, Hasher};

use crate::runs::{Run, Runs};

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
/// the module docs).  Range ids are word indices shifted by the log's
/// grain.
#[derive(Debug)]
pub(crate) struct SimLog {
    /// Latest publish time by word index (`addr / 8`), 0 where none;
    /// grown on demand by `record`.
    words: Vec<u64>,
    /// Latest publish time by range id, kept like `words`: each slot's
    /// newest time, dense, so a range left alone is seen without a hash
    /// probe.
    range_latest: Vec<u64>,
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
            range_latest: Vec::new(),
            ranges: DetMap::default(),
            depth: ring_depth.max(1) as usize,
            sweep_at: MIN_SWEEP_SLOTS,
        }
    }

    /// Record one publish batch: `words` written and `ranges` stamped at
    /// virtual time `time`.  Publish times are not monotone in call order
    /// — a joiner's clock runs ahead of the event queue — so "latest" is by
    /// time, not by arrival.
    pub(crate) fn record(&mut self, time: u64, words: &Runs, ranges: &Runs) {
        raise(&mut self.words, words, time);
        raise(&mut self.range_latest, ranges, time);
        for range in ranges.iter() {
            let times = &mut self.ranges.entry(range).or_default().times;
            let at = times.partition_point(|&t| t > time);
            if at < self.depth {
                times.truncate(self.depth - 1);
                times.insert(at, time);
            }
        }
    }

    /// Whether any word of `run` was published after `since`.
    pub(crate) fn any_word_since(&self, run: Run, since: u64) -> bool {
        latest_since(&self.words, run, since)
    }

    /// Whether any range id of `run` was stamped after `since`.
    pub(crate) fn any_range_since(&self, run: Run, since: u64) -> bool {
        latest_since(&self.range_latest, run, since)
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

/// Raise the latest time of every id of `ids` to `time`, growing `latest`
/// to hold them.
fn raise(latest: &mut Vec<u64>, ids: &Runs, time: u64) {
    for run in ids.runs() {
        let (start, end) = (run.start as usize, run.end as usize);
        if end > latest.len() {
            latest.resize(end, 0);
        }
        for t in &mut latest[start..end] {
            *t = (*t).max(time);
        }
    }
}

/// Whether any id of `run` has a latest time after `since` (an id past the
/// end of `latest` has none).
fn latest_since(latest: &[u64], run: Run, since: u64) -> bool {
    let end = (run.end as usize).min(latest.len());
    let start = (run.start as usize).min(end);
    latest[start..end].iter().any(|&t| t > since)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set of the given ascending word indices.
    fn words(ids: &[u64]) -> Runs {
        ids.iter().map(|&id| Run::one(id)).collect()
    }

    /// Whether word `id` was published after `since`.
    fn word_since(log: &SimLog, id: u64, since: u64) -> bool {
        log.any_word_since(Run::one(id), since)
    }

    #[test]
    fn range_counts_are_by_time_and_capped_at_the_ring_depth() {
        let mut log = SimLog::new(2);
        log.record(50, &words(&[1, 2]), &words(&[1]));
        // A later call with an earlier time: the joiner's clock ran ahead.
        log.record(30, &words(&[1]), &words(&[1, 2]));
        log.record(70, &words(&[3]), &words(&[1]));
        assert!(word_since(&log, 1, 49));
        assert!(!word_since(&log, 1, 50), "latest is by time, not arrival");
        assert!(!word_since(&log, 4, 0));
        // Three publishes stamped range 1; depth 2 keeps 70 and 50.
        assert_eq!(log.range_since(1, 0), 2);
        assert_eq!(log.range_since(1, 50), 1);
        assert_eq!(log.range_since(1, 70), 0);
        assert_eq!(log.range_since(2, 29), 1);
        assert_eq!(log.range_since(3, 0), 0);
        // The latest time per range is what `range_since` counts from.
        let ranges = Run { start: 1, end: 3 };
        assert!(log.any_range_since(ranges, 69));
        assert!(!log.any_range_since(ranges, 70));
        assert!(log.any_range_since(Run::one(2), 29));
        assert!(!log.any_range_since(Run::one(2), 30));
        assert!(!log.any_range_since(Run { start: 3, end: 9 }, 0));
    }

    #[test]
    fn a_word_past_the_index_was_never_published() {
        let mut log = SimLog::new(4);
        assert!(!word_since(&log, 8, 0));
        assert!(!log.any_word_since(
            Run {
                start: u64::MAX - 1,
                end: u64::MAX
            },
            0
        ));
        log.record(5, &words(&[10]), &Runs::default());
        assert_eq!(log.words.len(), 11);
        assert!(word_since(&log, 10, 4));
        assert!(!word_since(&log, 9, 0), "a word the growth skipped");
        assert!(!word_since(&log, 11, 0));
    }

    /// A run is hit through its first word, through its last, and through
    /// the part of it the index covers when it runs past the index's end.
    #[test]
    fn a_run_is_hit_by_any_one_of_its_words() {
        let mut log = SimLog::new(4);
        let run = Run { start: 4, end: 12 };
        log.record(9, &words(&[3, 12]), &Runs::default());
        assert!(!log.any_word_since(run, 0), "the neighbours on both sides");
        log.record(10, &words(&[4]), &Runs::default());
        assert!(log.any_word_since(run, 9), "its first word");
        assert!(!log.any_word_since(run, 10));
        log.record(20, &words(&[11]), &Runs::default());
        assert!(log.any_word_since(run, 19), "its last word");
        assert!(!log.any_word_since(Run { start: 5, end: 11 }, 10));
        // The index ends at word 12: a run across its end is looked up
        // over the part inside, a run wholly past it not at all.
        assert_eq!(log.words.len(), 13);
        assert!(log.any_word_since(Run { start: 12, end: 40 }, 8));
        assert!(!log.any_word_since(Run { start: 12, end: 40 }, 9));
        assert!(log.any_word_since(
            Run {
                start: 0,
                end: 1 << 40
            },
            19
        ));
        assert!(!log.any_word_since(Run { start: 13, end: 40 }, 0));
        // A publish of a run grows the index to its end.
        log.record(
            30,
            &[Run { start: 20, end: 24 }].into_iter().collect(),
            &Runs::default(),
        );
        assert_eq!(log.words.len(), 24);
        assert!(log.any_word_since(Run { start: 23, end: 40 }, 29));
        assert!(!log.any_word_since(Run { start: 13, end: 20 }, 0));
    }

    #[test]
    fn a_publish_at_time_zero_is_since_nothing() {
        let mut log = SimLog::new(4);
        log.record(0, &words(&[1, 16]), &words(&[1]));
        assert!(!word_since(&log, 1, 0));
        assert!(!word_since(&log, 16, 0));
        assert_eq!(log.range_since(1, 0), 0);
        // And it never hides a later publish of the same word.
        log.record(3, &words(&[1]), &Runs::default());
        log.record(0, &words(&[1]), &Runs::default());
        assert!(word_since(&log, 1, 2));
    }

    #[test]
    fn pruning_drops_only_what_no_later_lookup_can_count() {
        let mut log = SimLog::new(4);
        for word in 0..MIN_SWEEP_SLOTS as u64 {
            log.record(10, &words(&[word]), &words(&[word]));
        }
        log.record(20, &words(&[0]), &words(&[0]));
        log.prune(10);
        // Ranges are swept; words are kept and answer as absent ones would.
        assert_eq!(log.ranges.len(), 1);
        assert_eq!(log.words.len(), MIN_SWEEP_SLOTS);
        assert!(word_since(&log, 0, 10));
        assert!(!word_since(&log, 1, 10));
        assert_eq!(log.range_since(0, 10), 1);
        // Below the doubled threshold a sweep is skipped.
        log.record(30, &words(&[1]), &words(&[1]));
        log.prune(1000);
        assert_eq!(log.ranges.len(), 2);
        assert!(word_since(&log, 1, 20));
        // Words do not count towards the threshold: one range slot over
        // twice as many words as a sweep needs is not swept.
        let mut words_only = SimLog::new(4);
        let many = (0..2 * MIN_SWEEP_SLOTS as u64).map(Run::one).collect();
        words_only.record(10, &many, &words(&[0]));
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
            log.record(10, &words(&[word]), &words(&[100 + word]));
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
