//! **Conflict detection.**  A speculative task is doomed when an address
//! it read is published (committed to main memory) by logically earlier
//! work while the task is in flight — the condition MUTLS read-set
//! validation detects.
//!
//! # What a replay costs
//!
//! Conflict detection asks the simulated commit log (`SimLog`) the
//! question the runtime asks its `CommitLog` — "was this range stamped
//! after my snapshot?" — and asks it the same way, by lookup in flat
//! tables indexed by id:
//!
//! * the **publish index** keeps, per word and per range id, the latest
//!   publish time (a run of either is looked up in one pass over a slice)
//!   and, per range id, a ring of the latest `ring_depth` publish times.
//!   That is exactly enough to decide a hit, a word hit and "at least
//!   `ring_depth` publishes since *t*" (a ring overflow) from a finished
//!   segment's read runs and the ranges they cover
//!   (`Scheduler::check_reads`);
//! * the **reader registry** keeps, per range id, one bit per simulated
//!   CPU whose fiber read it, so a publish visits the readers of the
//!   ranges it stamps (`Scheduler::publish`, through `on_cpu`) — never
//!   the fibers that have nothing to do with them, let alone the retired
//!   ones.  A fiber enters it and leaves it one bit per range, over a
//!   whole run of ranges at a time;
//! * footprints are word runs end to end ([`Runs`]: ascending, disjoint,
//!   never adjacent): built by the recorder from its generation-stamped
//!   marks when the segment ends, borrowed (not copied) by the scheduler,
//!   merged run by run into a fiber's read and write sets, and moved into
//!   the joiner's when a speculative parent absorbs a committed child.
//!   A set's word count still prices what the runtime pays per word.
//!
//! So a segment costs one pass over the latest times of the ranges its
//! reads cover — plus, when one of them was stamped meanwhile, one over
//! those of its words and a ring per range — and a publish O(ranges it
//! stamps + their registered readers), whatever the simulated CPU count
//! and however many fibers the run has spawned.  Nothing walks the live
//! fibers and nothing is swept: a publish time at or below every live
//! reader's start counts for nobody, and a ring drops its oldest time
//! first.  Under `cfg(test)` the log scan all of this replaced is kept as
//! the reference (`mod reference`) and every verdict is computed both ways
//! and compared.

use super::*;

impl<'a> Scheduler<'a> {
    /// The shift from a word index to its commit-log range id: a range id
    /// is the address shifted by the log's grain, at least a word.
    fn range_shift(&self) -> u32 {
        self.config.commit_log.grain_log2 - WORD_BYTES.trailing_zeros()
    }

    /// The commit-log range ids covering `words`.
    fn ranges_of(&self, words: &Runs) -> Runs {
        words.coarsen(self.range_shift())
    }

    /// Whether the simulated log keeps version rings (depth 1 is the
    /// single-version reference: every range hit dooms).
    pub(super) fn mvcc(&self) -> bool {
        self.config.commit_log.ring_depth > 1
    }

    /// Publish a set of written addresses to main memory at `time`,
    /// dooming any in-flight speculative fiber that already read a
    /// commit-log *range* the batch stamps (at word grain this is exact;
    /// coarser grains add false sharing but never miss a conflict).  The
    /// publish is also entered in the index so that reads registered later
    /// (at segment completion) can be checked against it.
    ///
    /// The newly doomed fibers (the registered readers of the stamped
    /// ranges) are additionally asked to **stop at their next check
    /// point** instead of burning their whole conflict window; the
    /// returned cycles are the writer's doom-signalling cost
    /// (`CostModel::doom_signal` per victim), which the caller adds to
    /// the writer's clock.
    pub(super) fn publish(&mut self, writes: &Runs, time: u64, writer: usize) -> u64 {
        if writes.is_empty() {
            return 0;
        }
        // Coarsen at the log's grain, counting the simulated stamp traffic
        // (one stamp per distinct range — the column a coarser grain
        // shrinks), and visit the registered readers of every stamped
        // range with the written words inside it.
        let mvcc = self.mvcc();
        let ring_depth = self.config.commit_log.ring_depth as usize;
        let shift = self.range_shift();
        let ranges = self.ranges_of(writes);
        let mut touches: Vec<Touch> = Vec::new();
        self.sim_commits += 1;
        self.sim_stamps += ranges.len();
        for run in writes.runs() {
            let mut start = run.start;
            while start < run.end {
                let range = start >> shift;
                let end = ((range + 1) << shift).min(run.end);
                let written = Run { start, end };
                start = end;
                // The registry holds a fiber under the ranges it read:
                // every reader here read the range; `word` says whether it
                // read one of the very words.
                for cpu in self.log.readers(range) {
                    let fid = self.on_cpu[cpu - 1].expect("a reader holds its CPU");
                    let fiber = &self.fibers[fid];
                    if fid == writer || fiber.start_time >= time {
                        continue;
                    }
                    let word = fiber.reads.intersects(written);
                    // Ring overflow: more publishes into the range than
                    // the ring holds since the fiber started — the sim's
                    // publish times stand in for the log version, a
                    // conservative proxy for the entry's read stamp.
                    let overflow =
                        mvcc && self.log.range_since(range, fiber.start_time) + 1 >= ring_depth;
                    touches.push(Touch {
                        fid,
                        word,
                        overflow,
                    });
                }
            }
        }
        let verdicts = self.publish_verdicts(touches);
        #[cfg(test)]
        {
            let entry = self.pub_entry_by_scan(writes, time);
            assert_eq!(ranges.iter().collect::<Vec<_>>(), entry.ranges);
            assert_eq!(verdicts, self.publish_verdicts_by_scan(&entry, writer));
            self.publishes.push(entry);
        }
        self.log.record(time, writes, &ranges);

        let mut newly_doomed: Vec<usize> = Vec::new();
        for (fid, verdict) in verdicts {
            let fiber = &mut self.fibers[fid];
            match verdict {
                PublishVerdict::Genuine => fiber.doomed_false_sharing = false,
                PublishVerdict::PrecisePass => {
                    fiber.precise_passes += 1;
                    self.observe(time, self.lane_of(fid), Point::PrecisePasses(1));
                }
                PublishVerdict::Doom {
                    false_sharing,
                    ring_overflow,
                } => {
                    fiber.doomed = Some(SpecFailure::ReadConflict);
                    fiber.doomed_false_sharing = false_sharing;
                    self.sim_ring_overflows += u64::from(ring_overflow);
                    // Mirror the native in-flight retry: a false-sharing
                    // victim re-validates by value and keeps running (it
                    // retries at its join), so only genuinely stale
                    // readers are stopped early.
                    if !false_sharing {
                        newly_doomed.push(fid);
                    }
                }
            }
        }
        let victims = newly_doomed.len() as u64;
        let cost = self.config.cost.doom_cycles(victims);
        self.observe(time, self.lane_of(writer), Point::Doomed(victims));
        for fid in newly_doomed {
            self.request_stop(fid, time);
        }
        cost
    }

    /// Fold the (write, registered reader) touches of one publish into one
    /// verdict per touched fiber, in ascending fiber order — the order the
    /// victims are stopped in, hence part of the deterministic replay.
    fn publish_verdicts(&self, mut touches: Vec<Touch>) -> Vec<(usize, PublishVerdict)> {
        touches.sort_unstable_by_key(|t| t.fid);
        let mut verdicts = Vec::new();
        for group in touches.chunk_by(|a, b| a.fid == b.fid) {
            let fid = group[0].fid;
            let word_hit = group.iter().any(|t| t.word);
            let fiber = &self.fibers[fid];
            let verdict = if fiber.doomed.is_some() {
                if !(fiber.doomed_false_sharing && word_hit) {
                    continue;
                }
                PublishVerdict::Genuine
            } else {
                let range_only = self.mvcc() && !word_hit;
                let ring_overflow = range_only && group.iter().any(|t| t.overflow);
                if range_only && !ring_overflow {
                    PublishVerdict::PrecisePass
                } else {
                    PublishVerdict::Doom {
                        false_sharing: !word_hit,
                        ring_overflow,
                    }
                }
            };
            verdicts.push((fid, verdict));
        }
        verdicts
    }

    /// The conflict verdicts of everything published after `since` under
    /// `reads` (a segment's footprint), coarsened at the log's grain.  Only
    /// a range stamped after `since` can hold a hit, so one pass over the
    /// latest times of the ranges read clears a segment nothing was
    /// published over (in md's replay, every segment); the rest take a
    /// pass over the words read and, unless a word was hit, one ring per
    /// range.
    fn check_reads(&self, reads: &Runs, since: u64) -> ReadVerdict {
        let ranges = self.ranges_of(reads);
        let stamped = |run: &Run| self.log.any_range_since(*run, since);
        if !ranges.runs().iter().any(stamped) {
            return ReadVerdict::default();
        }
        let word_hit = reads
            .runs()
            .iter()
            .any(|&run| self.log.any_word_since(run, since));
        if word_hit {
            // A word hit is a genuine hit: no ring can excuse it.
            return ReadVerdict {
                hit: true,
                word_hit,
                overflow: false,
            };
        }
        let ring_depth = self.config.commit_log.ring_depth as usize;
        let mut verdict = ReadVerdict::default();
        for range in ranges.iter() {
            let stamps = self.log.range_since(range, since);
            verdict.hit |= stamps > 0;
            // Conservative ring-overflow probe (only consulted on the
            // range-only path).
            verdict.overflow |= stamps >= ring_depth;
        }
        verdict.overflow &= self.mvcc();
        verdict
    }

    /// Merge `words` into speculative fiber `fid`'s read set — except what
    /// it wrote first — coarsened at the log's grain, and set its CPU's
    /// reader bit under every range new to it.
    pub(super) fn register_reads(&mut self, fid: usize, words: &Runs) {
        let fresh = words.minus(&self.fibers[fid].writes);
        let ranges = self.ranges_of(&fresh);
        let fiber = &mut self.fibers[fid];
        let new_ranges = ranges.minus(&fiber.read_ranges);
        self.log.register(&new_ranges, fiber.cpu);
        fiber.read_ranges.union(&new_ranges);
        fiber.reads.union(&fresh);
    }

    pub(super) fn apply_segment_effects(&mut self, fid: usize) {
        let frame = *self.fibers[fid].frames.last().expect("frame present");
        let recording: &'a Recording = self.recording;
        if let SimEvent::Seg(seg) = &recording.nodes[frame.node].events[frame.ip] {
            let speculative = self.fibers[fid].speculative;
            let cycles = self.segment_cycles(seg, speculative);
            let fiber = &mut self.fibers[fid];
            fiber.stats.counters.loads += seg.loads;
            fiber.stats.counters.stores += seg.stores;
            fiber.stats.add(Phase::Work, cycles);
            if speculative {
                // The reads of this segment are checked against anything
                // published to main memory while the segment executed —
                // range-grained like the in-flight doom check, with the
                // word-level overlap telling a genuine hit from false
                // sharing.
                let fx = self.check_reads(&seg.reads, self.fibers[fid].segment_started);
                #[cfg(test)]
                assert_eq!(
                    fx,
                    self.check_reads_by_scan(&seg.reads, self.fibers[fid].segment_started)
                );
                self.register_reads(fid, &seg.reads);
                self.fibers[fid].writes.union(&seg.writes);
                if fx.hit {
                    let word_hit = fx.word_hit;
                    // mvcc precise validation for late-registered reads:
                    // a range-only hit whose publishes all still fit in
                    // the range's version ring is proven word-disjoint by
                    // the footprints — a precise pass, not a doom.
                    let range_only = self.mvcc() && !word_hit && self.fibers[fid].doomed.is_none();
                    let overflow = range_only && fx.overflow;
                    if range_only && !overflow {
                        let now = self.fibers[fid].time;
                        self.fibers[fid].precise_passes += 1;
                        self.observe(now, self.lane_of(fid), Point::PrecisePasses(1));
                    } else {
                        if range_only {
                            self.sim_ring_overflows += 1;
                        }
                        match self.fibers[fid].doomed {
                            None => {
                                self.fibers[fid].doomed = Some(SpecFailure::ReadConflict);
                                self.fibers[fid].doomed_false_sharing = !word_hit;
                            }
                            // Upgrade an earlier false-sharing
                            // classification when this segment's reads
                            // were genuinely hit.
                            Some(_) if word_hit => self.fibers[fid].doomed_false_sharing = false,
                            Some(_) => {}
                        }
                    }
                }
            } else {
                // Non-speculative writes reach main memory immediately,
                // surgically dooming their registered readers.
                let time = self.fibers[fid].time;
                let doom_cost = self.publish(&seg.writes, time, fid);
                self.fibers[fid].time += doom_cost;
            }
        }
        self.fibers[fid].seg_in_flight = false;
        self.bump_ip(fid);
    }
}
