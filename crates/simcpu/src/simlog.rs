//! The simulated commit log: a publish index and a reader registry.
//!
//! The native `CommitLog` answers "was this range stamped after my
//! snapshot?" with one per-range lookup, and finds the readers a commit
//! must doom in the stamped range's reader mask (`publish`).  This is
//! the simulator's equivalent, in the native log's shape: flat tables
//! indexed by id and grown on demand, so a lookup is one index and a
//! table costs what the ids written into it span.
//!
//! Every conflict question the scheduler asks has the form "how many
//! publishes touched this word / range id after virtual time `t`?", and
//! the answer only ever matters up to the version-ring depth.  So the log
//! keeps per word the latest publish time (time 0, an id never published,
//! is "since" nothing), and per range id a ring of its latest
//! `ring_depth` publish times, newest first.  "Was any word (or range) of
//! this run published after `t`?" is one pass over a slice (or over the
//! rings' first times); a count of a range's publishes is one pass over
//! its ring.  Nothing is ever pruned: a time at or below every live
//! reader's start counts for nobody, and a ring drops its oldest time
//! first.
//!
//! The readers of a range id are bits, one per simulated CPU, in
//! `⌈CPUs / 64⌉` masks, as the native log's reader masks hold one bit per
//! rank: a speculative fiber holds its CPU until it retires, so the CPU
//! names it.  Registering a segment's reads or retiring a fiber sets or
//! clears one bit per range id of a whole [`Runs`].
//!
//! The scheduler's maps of a fiber's children hash with [`WordHasher`]:
//! their keys are node ids the recording itself produced, so a
//! collision-resistant (and per-process random) SipHash buys nothing.

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

/// Publish times by word and by range id, and readers by range id (see
/// the module docs).  Range ids are word indices shifted by the log's
/// grain.  Every table is indexed by id, 0 past its end, and grown on
/// demand to the last id written.
#[derive(Debug)]
pub(crate) struct SimLog {
    /// Latest publish time by word index (`addr / 8`), 0 where none.
    words: Vec<u64>,
    /// The latest `depth` publish times of each range id, newest first, 0
    /// where none: range `r`'s ring is `times[r * depth..][..depth]`, and
    /// its latest time is the ring's first.
    times: Vec<u64>,
    /// Reader masks, `lanes` per range id: range `r`'s are
    /// `readers[r * lanes..][..lanes]`, and the fiber on simulated CPU `c`
    /// owns bit `(c - 1) % 64` of lane `(c - 1) / 64`.
    readers: Vec<u64>,
    /// Times kept per range: the version-ring depth.
    depth: usize,
    /// Reader masks per range: `⌈CPUs / 64⌉`.
    lanes: usize,
}

impl SimLog {
    pub(crate) fn new(ring_depth: u32, num_cpus: usize) -> Self {
        SimLog {
            words: Vec::new(),
            times: Vec::new(),
            readers: Vec::new(),
            depth: ring_depth.max(1) as usize,
            lanes: num_cpus.div_ceil(64).max(1),
        }
    }

    /// Record one publish batch: `words` written and `ranges` stamped at
    /// virtual time `time`.  Publish times are not monotone in call order
    /// — a joiner's clock runs ahead of the event queue — so "latest" is by
    /// time, not by arrival.
    pub(crate) fn record(&mut self, time: u64, words: &Runs, ranges: &Runs) {
        cover(&mut self.words, words, 1);
        for run in words.runs() {
            for t in &mut self.words[run.start as usize..run.end as usize] {
                *t = (*t).max(time);
            }
        }
        let depth = self.depth;
        cover(&mut self.times, ranges, depth);
        for range in ranges.iter() {
            let ring = &mut self.times[range as usize * depth..][..depth];
            let at = ring.partition_point(|&t| t > time);
            if at < depth {
                ring[at..].rotate_right(1);
                ring[at] = time;
            }
        }
    }

    /// Whether any word of `run` was published after `since`.
    pub(crate) fn any_word_since(&self, run: Run, since: u64) -> bool {
        latest_since(&self.words, 1, run, since)
    }

    /// Whether any range id of `run` was stamped after `since`.
    pub(crate) fn any_range_since(&self, run: Run, since: u64) -> bool {
        latest_since(&self.times, self.depth, run, since)
    }

    /// Publishes that stamped `range` after `since`, counted up to the
    /// ring depth — every caller compares the count against at most that.
    pub(crate) fn range_since(&self, range: u64, since: u64) -> usize {
        let ring = slots(&self.times, range, self.depth);
        ring.iter().take_while(|&&t| t > since).count()
    }

    /// The simulated CPUs whose fibers are registered as readers of
    /// `range`, ascending.
    pub(crate) fn readers(&self, range: u64) -> impl Iterator<Item = usize> + '_ {
        let masks = slots(&self.readers, range, self.lanes);
        masks.iter().enumerate().flat_map(|(lane, &mask)| {
            let mut left = mask;
            std::iter::from_fn(move || {
                let bit = left.trailing_zeros() as usize;
                left &= left.wrapping_sub(1);
                (bit < 64).then_some(lane * 64 + bit + 1)
            })
        })
    }

    /// Register the fiber on simulated CPU `cpu` as a reader of every
    /// range id of `ranges`, none of which it reads yet.
    pub(crate) fn register(&mut self, ranges: &Runs, cpu: usize) {
        cover(&mut self.readers, ranges, self.lanes);
        self.each_mask(ranges, cpu, |mask, bit| {
            debug_assert_eq!(*mask & bit, 0, "CPU {cpu} registered twice");
            *mask |= bit;
        });
    }

    /// Remove the fiber on simulated CPU `cpu` from the readers of every
    /// range id of `ranges`.
    pub(crate) fn unregister(&mut self, ranges: &Runs, cpu: usize) {
        self.each_mask(ranges, cpu, |mask, bit| *mask &= !bit);
    }

    /// Apply `f` to CPU `cpu`'s reader mask and bit under every range id
    /// of `ranges` the table holds.
    fn each_mask(&mut self, ranges: &Runs, cpu: usize, mut f: impl FnMut(&mut u64, u64)) {
        let (lanes, lane, bit) = (self.lanes, (cpu - 1) / 64, 1 << ((cpu - 1) % 64));
        for run in ranges.runs() {
            let end = (run.end as usize * lanes).min(self.readers.len());
            let start = (run.start as usize * lanes).min(end);
            let masks = self.readers[start..end].iter_mut().skip(lane);
            masks.step_by(lanes).for_each(|mask| f(mask, bit));
        }
    }
}

/// Grow `table`, `width` slots per id, to hold every id of `ids`.
fn cover(table: &mut Vec<u64>, ids: &Runs, width: usize) {
    if let Some(last) = ids.runs().last() {
        let end = last.end as usize * width;
        if end > table.len() {
            table.resize(end, 0);
        }
    }
}

/// The `width` slots of id `id` in `table`, none past its end.
fn slots(table: &[u64], id: u64, width: usize) -> &[u64] {
    let start = (id as usize).saturating_mul(width);
    table.get(start..start.saturating_add(width)).unwrap_or(&[])
}

/// Whether any id of `run` has a latest time, the first of its `width`
/// slots of `table`, after `since` (an id past the end of `table` has none).
fn latest_since(table: &[u64], width: usize, run: Run, since: u64) -> bool {
    let end = (run.end as usize).saturating_mul(width).min(table.len());
    let start = (run.start as usize).saturating_mul(width).min(end);
    table[start..end].iter().step_by(width).any(|&t| t > since)
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
        let mut log = SimLog::new(2, 1);
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
        let mut log = SimLog::new(4, 1);
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
        let mut log = SimLog::new(4, 1);
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
        let mut log = SimLog::new(4, 1);
        log.record(0, &words(&[1, 16]), &words(&[1]));
        assert!(!word_since(&log, 1, 0));
        assert!(!word_since(&log, 16, 0));
        assert_eq!(log.range_since(1, 0), 0);
        // And it never hides a later publish of the same word.
        log.record(3, &words(&[1]), &Runs::default());
        log.record(0, &words(&[1]), &Runs::default());
        assert!(word_since(&log, 1, 2));
    }

    /// The CPUs registered as readers of `range`.
    fn cpus(log: &SimLog, range: u64) -> Vec<usize> {
        log.readers(range).collect()
    }

    #[test]
    fn readers_are_one_bit_per_cpu_across_the_lane_boundary() {
        assert_eq!(SimLog::new(4, 64).lanes, 1);
        assert_eq!(SimLog::new(4, 65).lanes, 2);
        let mut log = SimLog::new(4, 128);
        assert_eq!(log.lanes, 2);
        for cpu in [128, 1, 65, 64] {
            log.register(&words(&[7]), cpu);
        }
        assert_eq!(cpus(&log, 7), [1, 64, 65, 128]);
        assert_eq!(
            log.readers,
            [0; 14]
                .into_iter()
                .chain([1 << 63 | 1, 1 << 63 | 1])
                .collect::<Vec<_>>()
        );
        assert!(cpus(&log, 6).is_empty());
        log.unregister(&words(&[7]), 64);
        log.unregister(&words(&[7]), 65);
        assert_eq!(cpus(&log, 7), [1, 128]);
        log.unregister(&words(&[7]), 1);
        log.unregister(&words(&[7]), 128);
        assert!(cpus(&log, 7).is_empty());
        assert!(log.readers.iter().all(|&mask| mask == 0));
    }

    #[test]
    fn register_and_unregister_cover_every_range_of_every_run() {
        let mut log = SimLog::new(4, 70);
        let first: Runs = [(2, 5), (9, 10), (12, 20)]
            .into_iter()
            .map(|(start, end)| Run { start, end })
            .collect();
        let second: Runs = [Run { start: 4, end: 13 }].into_iter().collect();
        log.register(&first, 3);
        log.register(&second, 66);
        let want = |range: u64, sets: &[(&Runs, usize)]| -> Vec<usize> {
            sets.iter()
                .filter(|(set, _)| set.intersects(Run::one(range)))
                .map(|&(_, cpu)| cpu)
                .collect()
        };
        for range in 0..24 {
            let both = want(range, &[(&first, 3), (&second, 66)]);
            assert_eq!(cpus(&log, range), both, "range {range}");
        }
        log.unregister(&first, 3);
        for range in 0..24 {
            assert_eq!(cpus(&log, range), want(range, &[(&second, 66)]));
        }
        log.unregister(&second, 66);
        assert!(log.readers.iter().all(|&mask| mask == 0));
    }

    #[test]
    fn a_range_past_either_table_has_no_readers_and_no_publishes() {
        let mut log = SimLog::new(4, 8);
        log.register(&words(&[3]), 2);
        log.record(5, &words(&[40]), &words(&[5]));
        // The readers end after range 3, the publish times after range 5.
        assert_eq!((log.readers.len(), log.times.len()), (4, 6 * 4));
        assert_eq!(cpus(&log, 3), [2]);
        assert_eq!(log.range_since(5, 0), 1);
        for range in [4, 5, 6, 1 << 40, u64::MAX] {
            assert!(cpus(&log, range).is_empty(), "range {range}");
        }
        for range in [3, 6, 1 << 40, u64::MAX] {
            assert_eq!(log.range_since(range, 0), 0, "range {range}");
        }
        assert!(!log.any_range_since(
            Run {
                start: 6,
                end: 1 << 40
            },
            0
        ));
        // Leaving a range the table does not hold changes nothing.
        log.unregister(&words(&[9]), 2);
        assert_eq!(cpus(&log, 3), [2]);
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
