//! The publish log the index replaced, the scans over it and the
//! all-fiber loops the live list replaced, as they were: the reference
//! every looked-up verdict is compared against in this crate's tests.

use super::*;

/// One published write batch: the commit time, the written word
/// addresses, and the range ids stamped at the publisher's live grains.
#[derive(Debug, Clone)]
pub(super) struct PubEntry {
    pub(super) time: u64,
    pub(super) words: Vec<Addr>,
    pub(super) ranges: Vec<u64>,
}

impl Scheduler<'_> {
    /// Drop the leading run of entries at or below the horizon.
    pub(super) fn fossil_collect_log(&mut self, now: u64, horizon: u64) {
        let mut scanned = now;
        for fiber in &self.fibers {
            if fiber.speculative && !fiber.retired {
                scanned = scanned.min(fiber.start_time);
            }
        }
        assert_eq!(horizon, scanned);
        let dead = self
            .publishes
            .iter()
            .take_while(|e| e.time <= horizon)
            .count();
        self.publishes.drain(..dead);
    }

    pub(super) fn check_reads_by_scan(&self, seg_reads: &[Addr], seg_start: u64) -> ReadVerdict {
        let entries = &self.publishes;
        let reads: Vec<(Addr, u64)> = seg_reads.iter().map(|&a| (a, self.range_at(a))).collect();
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
            fx.region = reads
                .iter()
                .filter(|(a, r)| {
                    entries.iter().any(|e| {
                        e.time > seg_start && (e.words.contains(a) || e.ranges.contains(r))
                    })
                })
                .map(|(a, _)| a >> self.region_log2)
                .min();
        }
        fx
    }

    pub(super) fn publish_verdicts_by_scan(
        &self,
        writes: &[Addr],
        ranges: &[u64],
        time: u64,
        writer: usize,
    ) -> Vec<(usize, PublishVerdict)> {
        let ring_depth = self.config.commit_log.ring_depth as usize;
        let mut verdicts = Vec::new();
        for (fid, fiber) in self.fibers.iter().enumerate() {
            if fid == writer || !fiber.speculative || fiber.retired {
                continue;
            }
            if fiber.start_time >= time {
                continue;
            }
            let word_hit = writes.iter().any(|w| fiber.reads.contains(w));
            if fiber.doomed.is_some() {
                if fiber.doomed_false_sharing && word_hit {
                    verdicts.push((fid, PublishVerdict::Genuine));
                }
                continue;
            }
            if !word_hit && !ranges.iter().any(|r| fiber.read_ranges.contains(r)) {
                continue;
            }
            let mut ring_overflow = false;
            if self.mvcc() && !word_hit {
                ring_overflow = fiber.read_ranges.iter().any(|r| {
                    ranges.contains(r)
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
            let region = writes
                .iter()
                .filter(|w| {
                    fiber.reads.contains(w) || fiber.read_ranges.contains(&self.range_at(**w))
                })
                .map(|w| w >> self.region_log2)
                .min()
                .expect("a hit has a conflicting write");
            verdicts.push((
                fid,
                PublishVerdict::Doom {
                    false_sharing: !word_hit,
                    ring_overflow,
                    region,
                },
            ));
        }
        verdicts
    }

    pub(super) fn contenders_by_scan(&self, cf: usize, fid: usize, shards: &[u64]) -> u64 {
        let shard_mask = (self.config.commit_log.shards as u64) - 1;
        self.fibers
            .iter()
            .enumerate()
            .filter(|&(i, f)| i != cf && i != fid && f.speculative && f.finished.is_none())
            .filter(|(_, f)| {
                f.writes
                    .iter()
                    .any(|w| shards.contains(&((w >> self.region_log2) & shard_mask)))
            })
            .count() as u64
    }
}
