//! **Conflict detection.**  A speculative task is doomed when an address
//! it read is published (committed to main memory) by logically earlier
//! work while the task is in flight — the condition MUTLS read-set
//! validation detects.
//!
//! # What a replay costs
//!
//! Conflict detection asks the simulated commit log (`SimLog`) the
//! question the runtime asks its `CommitLog` — "was this range stamped
//! after my snapshot?" — and asks it the same way, by lookup:
//!
//! * the **publish index** keeps, per word, the latest publish time (one
//!   dense array indexed by word, so a word lookup is a load and a
//!   compare) and, per range id, the latest `ring_depth` publish times
//!   (one hash probe).  That is exactly enough to decide a hit, a word
//!   hit, "at least `ring_depth` publishes since *t*" (a ring overflow) and
//!   the lowest conflicting region in one pass over a finished segment's
//!   reads (`Scheduler::check_reads`);
//! * the **reader registry** keeps, per range id, the live speculative
//!   fibers that read it, so a publish visits the readers of the ranges
//!   it stamps (`Scheduler::publish`) — never the fibers that have
//!   nothing to do with them, let alone the retired ones;
//! * footprints are ascending, duplicate-free address lists end to end:
//!   collected by the recorder through one generation-stamped mark per
//!   word and sorted once when the segment ends, borrowed (not copied) by
//!   the scheduler, merged into a fiber's read and write sets, merged
//!   again into the joiner's when a speculative parent absorbs a child.
//!
//! So a segment costs O(reads + writes) and a publish O(writes +
//! registered readers of the stamped ranges), whatever the simulated CPU
//! count and however many fibers the run has spawned; the per-event
//! walks that remain (fossil horizon, a regrain's doom set) go over the live speculative fibers, at most one per CPU.
//! Fossil collection prunes the range slots no in-flight or future reader
//! can count; a word's time needs no pruning, since one at or below the
//! horizon already counts for nobody.  Under `cfg(test)` the log scan all
//! of this replaced is kept as the reference (`mod reference`) and every
//! verdict is computed both ways and compared.

use super::*;

impl<'a> Scheduler<'a> {
    /// Whether the simulated log keeps version rings (depth 1 is the
    /// single-version reference: every range hit dooms).
    pub(super) fn mvcc(&self) -> bool {
        self.config.commit_log.ring_depth > 1
    }

    /// Prune the publish-index entries no live speculative reader — and
    /// no future one, since fibers fork with `start_time >=` the current
    /// pop time — can ever count.  Every lookup asks for publishes
    /// strictly after a threshold `>= start_time`, so entries at or below
    /// the horizon (the minimum `start_time` over live speculative fibers,
    /// capped by the pop clock) are fossils.
    pub(super) fn fossil_collect(&mut self, now: u64) {
        let horizon = self
            .live
            .iter()
            .map(|&fid| self.fibers[fid].start_time)
            .fold(now, u64::min);
        self.log.prune(horizon);
        #[cfg(test)]
        self.fossil_collect_log(now, horizon);
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
    /// the writer's clock.  `writes` is ascending, like every footprint.
    pub(super) fn publish(&mut self, writes: &[Addr], time: u64, writer: usize) -> u64 {
        if writes.is_empty() {
            return 0;
        }
        debug_assert!(writes.is_sorted());
        // Coarsen at each write's *current per-region* grain, counting the
        // simulated stamp traffic (one stamp per distinct range — the
        // column a coarser grain shrinks) and the per-region telemetry
        // the grain controller runs on, and visit the registered readers
        // of every stamped range.
        let mvcc = self.mvcc();
        let ring_depth = self.config.commit_log.ring_depth as usize;
        let mut ranges: Vec<u64> = Vec::new();
        let mut touches: Vec<Touch> = Vec::new();
        self.sim_commits += 1;
        for &w in writes {
            let (range, region) = (self.range_at(w), w >> self.region_log2);
            // Range ids ascend with the address, so a repeat is adjacent.
            if ranges.last() != Some(&range) {
                ranges.push(range);
                self.sim_stamps += 1;
                self.region_telemetry.entry(region).or_default()[0] += 1;
            }
            for &fid in self.log.readers(range) {
                let fiber = &self.fibers[fid];
                if fid == writer || fiber.start_time >= time {
                    continue;
                }
                // Word overlap is checked in addition to range overlap so
                // a true conflict is never missed even if a regrain
                // re-indexed the ranges between the read and this publish
                // (the registry then holds the fiber under both ids).
                let word = fiber.reads.binary_search(&w).is_ok();
                let ranged = fiber.read_ranges.binary_search(&range).is_ok();
                if !word && !ranged {
                    continue;
                }
                // Ring overflow: more publishes into the range than the
                // ring holds since the fiber started — the sim's publish
                // times stand in for the shard version, a conservative
                // proxy for the entry's read stamp.
                let overflow = mvcc
                    && ranged
                    && self.log.range_since(range, fiber.start_time) + 1 >= ring_depth;
                touches.push(Touch {
                    fid,
                    word,
                    overflow,
                    region,
                });
            }
        }
        let verdicts = self.publish_verdicts(touches);
        #[cfg(test)]
        {
            assert_eq!(
                verdicts,
                self.publish_verdicts_by_scan(writes, &ranges, time, writer)
            );
            self.publishes.push(reference::PubEntry {
                time,
                words: writes.to_vec(),
                ranges: ranges.clone(),
            });
        }
        self.log.record(time, writes, &ranges);

        let mut newly_doomed: Vec<usize> = Vec::new();
        for (fid, verdict) in verdicts {
            let fiber = &mut self.fibers[fid];
            match verdict {
                PublishVerdict::Genuine => fiber.doomed_false_sharing = false,
                PublishVerdict::PrecisePass => {
                    self.observe(time, self.lane_of(fid), fid, Point::PrecisePasses(1));
                }
                PublishVerdict::Doom {
                    false_sharing,
                    ring_overflow,
                    region,
                } => {
                    fiber.doomed = Some(SpecFailure::ReadConflict);
                    fiber.doomed_false_sharing = false_sharing;
                    fiber.conflict_region = Some(region);
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
        let mut cost = self.config.cost.doom_cycles(victims);
        let source = DoomSource::Commit;
        let doomed = Point::Doomed { source, victims };
        self.observe(time, self.lane_of(writer), writer, doomed);
        for fid in newly_doomed {
            self.request_stop(fid, time);
        }
        self.publish_count += 1;
        cost += self.tick_grain_controller(time);
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
                        // Lowest, not first: the unstable sort leaves a
                        // fiber's touches in no particular order.
                        region: group.iter().map(|t| t.region).min().expect("non-empty"),
                    }
                }
            };
            verdicts.push((fid, verdict));
        }
        verdicts
    }

    /// The conflict verdicts of everything published after `since` under
    /// `reads` (a segment's sorted footprint), coarsened at the live
    /// grains: one index lookup per read and one per distinct range.
    fn check_reads(&self, reads: &[Addr], since: u64) -> ReadVerdict {
        let ring_depth = self.config.commit_log.ring_depth as usize;
        let mut verdict = ReadVerdict::default();
        // Sorted reads visit a range's words back to back.
        let mut last: Option<(u64, usize)> = None;
        for &a in reads {
            let range = self.range_at(a);
            let stamps = match last {
                Some((r, stamps)) if r == range => stamps,
                _ => self.log.range_since(range, since),
            };
            last = Some((range, stamps));
            let word = self.log.word_since(a, since);
            if word || stamps > 0 {
                verdict.hit = true;
                verdict.word_hit |= word;
                // Conservative ring-overflow probe (only consulted on the
                // range-only path).
                verdict.overflow |= stamps >= ring_depth;
                // Ascending reads: the first conflicting one is in the
                // lowest conflicting region.
                verdict.region.get_or_insert(a >> self.region_log2);
            }
        }
        verdict.overflow &= self.mvcc() && !verdict.word_hit;
        verdict
    }

    /// Merge the ascending `addrs` into speculative fiber `fid`'s read set
    /// — except what it wrote first — coarsened at the live grains, and
    /// enter it in the reader registry under every range new to it.
    pub(super) fn register_reads(&mut self, fid: usize, addrs: &[Addr]) {
        let writes = &self.fibers[fid].writes;
        let unwritten: Vec<Addr>;
        let fresh = if writes.is_empty() {
            addrs
        } else {
            unwritten = addrs
                .iter()
                .copied()
                .filter(|a| writes.binary_search(a).is_err())
                .collect();
            &unwritten
        };
        // Range ids ascend with the address: sorted, repeats adjacent.
        let mut ranges: Vec<u64> = Vec::new();
        for &a in fresh {
            let range = self.range_at(a);
            if ranges.last() != Some(&range) {
                ranges.push(range);
            }
        }
        let fiber = &mut self.fibers[fid];
        merge_sorted(&mut fiber.reads, fresh, |_| {});
        merge_sorted(&mut fiber.read_ranges, &ranges, |range| {
            // A regrain may have entered the fiber under this id already.
            match fiber.regrained_ranges.iter().position(|&r| r == range) {
                Some(at) => drop(fiber.regrained_ranges.swap_remove(at)),
                None => self.log.register(range, fid),
            }
        });
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
                // word-level overlap checked too so a regrain between the
                // publish and this check can never hide a true conflict.
                let fx = self.check_reads(&seg.reads, self.fibers[fid].segment_started);
                #[cfg(test)]
                assert_eq!(
                    fx,
                    self.check_reads_by_scan(&seg.reads, self.fibers[fid].segment_started)
                );
                self.register_reads(fid, &seg.reads);
                merge_sorted(&mut self.fibers[fid].writes, &seg.writes, |_| {});
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
                        self.observe(now, self.lane_of(fid), fid, Point::PrecisePasses(1));
                    } else {
                        if range_only {
                            self.sim_ring_overflows += 1;
                        }
                        match self.fibers[fid].doomed {
                            None => {
                                self.fibers[fid].doomed = Some(SpecFailure::ReadConflict);
                                self.fibers[fid].doomed_false_sharing = !word_hit;
                                self.fibers[fid].conflict_region = fx.region;
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

/// Merge the ascending, duplicate-free `add` into the ascending,
/// duplicate-free `into`; `on_new` sees every element `into` lacked.
pub(super) fn merge_sorted(into: &mut Vec<u64>, add: &[u64], mut on_new: impl FnMut(u64)) {
    use std::cmp::Ordering;
    if add.is_empty() {
        return;
    }
    let old = std::mem::take(into);
    into.reserve(old.len() + add.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < add.len() {
        match old[i].cmp(&add[j]) {
            Ordering::Less => {
                into.push(old[i]);
                i += 1;
            }
            Ordering::Equal => {
                into.push(old[i]);
                i += 1;
                j += 1;
            }
            Ordering::Greater => {
                into.push(add[j]);
                on_new(add[j]);
                j += 1;
            }
        }
    }
    into.extend_from_slice(&old[i..]);
    for &x in &add[j..] {
        into.push(x);
        on_new(x);
    }
}
