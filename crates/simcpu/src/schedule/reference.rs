//! The publish log the index replaced, the scans over it and the
//! all-fiber loops the CPU table and the reader masks replaced, as they
//! were: the reference every looked-up verdict is compared against in
//! this crate's tests.
//! It works word by word: every set of runs is expanded into its words
//! first, and every range id is computed from a word's address.

use super::*;

/// One published write batch: the commit time, the written words, and
/// the range ids stamped.
#[derive(Debug, Clone)]
pub(super) struct PubEntry {
    pub(super) time: u64,
    pub(super) words: Vec<u64>,
    pub(super) ranges: Vec<u64>,
}

impl Scheduler<'_> {
    /// The commit-log range id of word `word`: its address shifted by the
    /// log's grain.
    fn range_of_word(&self, word: u64) -> u64 {
        (word * WORD_BYTES) >> self.config.commit_log.grain_log2
    }

    /// Check the CPU table against every fiber, and drop the leading run
    /// of entries no lookup can count: at or below the horizon, the
    /// earliest start of an unretired speculative fiber, capped by the pop
    /// time `now` (a fiber forked later starts no earlier).  Every lookup
    /// asks for publishes strictly after a time at or past such a start.
    pub(super) fn check_cpus_and_trim(&mut self, now: u64) {
        let mut on_cpu = vec![None; self.on_cpu.len()];
        let mut horizon = now;
        for (fid, fiber) in self.fibers.iter().enumerate() {
            if fiber.speculative && !fiber.retired {
                assert_eq!(on_cpu[fiber.cpu - 1].replace(fid), None);
                horizon = horizon.min(fiber.start_time);
            }
        }
        assert_eq!(on_cpu, self.on_cpu);
        let dead = self
            .publishes
            .iter()
            .take_while(|e| e.time <= horizon)
            .count();
        self.publishes.drain(..dead);
    }

    /// The batch publishing `writes` at `time`: its words, and the
    /// distinct range ids they fall in, ascending.
    pub(super) fn pub_entry_by_scan(&self, writes: &Runs, time: u64) -> PubEntry {
        let words: Vec<u64> = writes.iter().collect();
        let mut ranges: Vec<u64> = words.iter().map(|&w| self.range_of_word(w)).collect();
        ranges.dedup();
        PubEntry {
            time,
            words,
            ranges,
        }
    }

    pub(super) fn check_reads_by_scan(&self, seg_reads: &Runs, seg_start: u64) -> ReadVerdict {
        let entries = &self.publishes;
        let seg_reads: Vec<u64> = seg_reads.iter().collect();
        let reads: Vec<(u64, u64)> = seg_reads
            .iter()
            .map(|&a| (a, self.range_of_word(a)))
            .collect();
        let mut fx = ReadVerdict {
            hit: entries.iter().any(|e| {
                e.time > seg_start
                    && reads
                        .iter()
                        .any(|(a, r)| e.words.contains(a) || e.ranges.contains(r))
            }),
            ..ReadVerdict::default()
        };
        if fx.hit {
            fx.word_hit = entries
                .iter()
                .any(|e| e.time > seg_start && seg_reads.iter().any(|a| e.words.contains(a)));
            if self.mvcc() && !fx.word_hit {
                let ring_depth = self.config.commit_log.ring_depth as usize;
                fx.overflow = reads.iter().any(|(_, r)| {
                    entries
                        .iter()
                        .filter(|e| e.time > seg_start && e.ranges.contains(r))
                        .count()
                        >= ring_depth
                });
            }
        }
        fx
    }

    pub(super) fn publish_verdicts_by_scan(
        &self,
        batch: &PubEntry,
        writer: usize,
    ) -> Vec<(usize, PublishVerdict)> {
        let ring_depth = self.config.commit_log.ring_depth as usize;
        let mut verdicts = Vec::new();
        for (fid, fiber) in self.fibers.iter().enumerate() {
            if fid == writer || !fiber.speculative || fiber.retired {
                continue;
            }
            if fiber.start_time >= batch.time {
                continue;
            }
            let reads: Vec<u64> = fiber.reads.iter().collect();
            let mut read_ranges: Vec<u64> = reads.iter().map(|&w| self.range_of_word(w)).collect();
            read_ranges.dedup();
            assert_eq!(read_ranges, fiber.read_ranges.iter().collect::<Vec<_>>());
            let word_hit = batch.words.iter().any(|w| reads.contains(w));
            if fiber.doomed.is_some() {
                if fiber.doomed_false_sharing && word_hit {
                    verdicts.push((fid, PublishVerdict::Genuine));
                }
                continue;
            }
            if !word_hit && !batch.ranges.iter().any(|r| read_ranges.contains(r)) {
                continue;
            }
            let mut ring_overflow = false;
            if self.mvcc() && !word_hit {
                ring_overflow = read_ranges.iter().any(|r| {
                    batch.ranges.contains(r)
                        && self
                            .publishes
                            .iter()
                            .filter(|e| e.time > fiber.start_time && e.ranges.contains(r))
                            .count()
                            + 1
                            >= ring_depth
                });
                if !ring_overflow {
                    verdicts.push((fid, PublishVerdict::PrecisePass));
                    continue;
                }
            }
            verdicts.push((
                fid,
                PublishVerdict::Doom {
                    false_sharing: !word_hit,
                    ring_overflow,
                },
            ));
        }
        verdicts
    }
}
