//! A join: `protocol::join_verdict` and `protocol::retire` decide, this
//! file gathers the child fiber's facts, prices validation, retry, commit
//! and finalization, publishes or absorbs, reconstructs the stopped
//! child's frames, cascades a rollback through its subtree and frees the
//! CPU.

use super::*;

impl<'a> Scheduler<'a> {
    /// Join child fiber `cf` into parent fiber `fid`.  Returns `false`
    /// when the parent became blocked again (it inherited a pending join
    /// from an early-stopped child) and must not continue executing now.
    pub(super) fn process_join(&mut self, fid: usize, cf: usize) -> bool {
        let cost = self.config.cost;
        let child_finish = self.fibers[cf].finished.expect("child stopped");
        let mut now = self.fibers[fid].time.max(child_finish);

        // Time the child spent waiting to be joined is speculative idle.
        let child_idle = now.saturating_sub(child_finish);
        self.fibers[cf].stats.add(Phase::Idle, child_idle);

        // Fixed synchronization bookkeeping on the joining thread.
        self.fibers[fid].stats.add(Phase::Join, cost.join);
        now += cost.join;

        // Validation (charged to the speculative path; the joiner idles).
        // The value comparison is per word; the commit-log probe is per
        // range, so coarser grains validate cheaper.
        let read_words = self.fibers[cf].reads.len() as u64;
        let read_ranges = self.fibers[cf].read_ranges.len() as u64;
        let write_words = self.fibers[cf].writes.len() as u64;
        let (child, joiner) = (self.lane_of(cf), self.lane_of(fid));
        let ranges = read_ranges as u32;
        self.observe(now, child, cf, Point::ValidateBegin(ranges));
        let validation = cost.validation_cycles_grained(read_words, read_ranges);
        self.fibers[cf].stats.add(Phase::Validation, validation);
        self.fibers[fid].stats.add(Phase::Idle, validation);
        now += validation;

        let mut retry = None;
        let injected = protocol::injected_draw(self.config.rollback_probability, || &mut self.rng);
        let verdict: Result<(), SpecFailure> = if let Some(reason) = self.fibers[cf].doomed {
            // Recovery rung 1 — value-predict retry: a range-only
            // (false-sharing) conflict means every word the fiber read
            // still holds its first-read value, so a value re-validation
            // pass repairs the join in place, no re-execution.
            if reason == SpecFailure::ReadConflict
                && self.fibers[cf].doomed_false_sharing
                && !injected
            {
                let cycles = cost.retry_cycles(read_words);
                self.fibers[cf].stats.add(Phase::Validation, cycles);
                self.fibers[fid].stats.add(Phase::Idle, cycles);
                now += cycles;
                retry = Some(cycles);
                self.fibers[cf].retried = true;
                self.fibers[cf].doomed = None;
                self.fibers[cf].doomed_false_sharing = false;
                // Grain-control telemetry: a retry is a conflict the
                // current grain made cheap — split evidence.
                if let Some(region) = self.fibers[cf].conflict_region.take() {
                    self.region_telemetry.entry(region).or_default()[3] += 1;
                }
                Ok(())
            } else {
                Err(reason)
            }
        } else if injected {
            Err(SpecFailure::Injected)
        } else {
            Ok(())
        };

        // Price the version-ring probes the fiber survived on in flight —
        // deterministic (the count is already in the fiber's stats), and
        // far cheaper than the value-predict retries they replace.
        let precise = self.fibers[cf].stats.counters.precise_passes;
        if precise > 0 {
            let cycles = cost.ring_probe_cycles(precise);
            self.fibers[cf].stats.add(Phase::Validation, cycles);
            self.fibers[fid].stats.add(Phase::Idle, cycles);
            now += cycles;
            self.observe(now, child, cf, Point::RingProbesPriced(cycles));
        }
        let facts = JoinFacts {
            // Whatever doomed the fiber and was not repaired, or the draw.
            dead: verdict.err(),
            valid: verdict.is_ok(),
            // Every word the fiber read still held its first-read value —
            // the doom is grain (or ring-overflow) induced conservatism,
            // not a proven dependence violation.
            suspect: self.fibers[cf].doomed_false_sharing,
            retried: self.fibers[cf].retried,
            // Whenever in its flight: drift (a) of `protocol`.
            precise_pass: precise > 0,
        };
        let JoinVerdict { outcome, rollback } = protocol::join_verdict(facts, true);
        let validated = Point::Validated {
            outcome,
            took: validation,
            retry,
        };
        self.observe(now, child, cf, validated);

        let finalize = cost.finalize_cycles(read_words + write_words);
        let mut blocked = false;
        match rollback {
            None => {
                // Publishing to main memory pays the commit log's
                // contention term, one CAS retry per contender; absorbing
                // into a speculative parent records nothing in the log
                // and pays nothing.
                let shard_mask = (self.config.commit_log.shards as u64) - 1;
                let cas_attempts = if self.fibers[fid].speculative {
                    0
                } else {
                    // Shards stripe *regions* (grain-independent), as in
                    // the native log.
                    let shard_of = |w: &Addr| (w >> self.region_log2) & shard_mask;
                    let mut shards: Vec<u64> =
                        self.fibers[cf].writes.iter().map(shard_of).collect();
                    shards.sort_unstable();
                    shards.dedup();
                    // Deterministic contention model: every *other*
                    // unfinished speculative fiber whose buffered writes
                    // map into a touched shard is one potential
                    // same-shard contender, costing this batch one CAS
                    // retry.  Disjoint-shard committers stay free — the
                    // whole point of the CAS-published slots.
                    let contenders = self
                        .live
                        .iter()
                        .chain(&self.cancelled_in_flight)
                        .map(|&i| &self.fibers[i])
                        .filter(|f| f.finished.is_none())
                        .filter(|f| f.writes.iter().any(|w| shards.contains(&shard_of(w))))
                        .count() as u64;
                    #[cfg(test)]
                    assert_eq!(contenders, self.contenders_by_scan(cf, fid, &shards));
                    contenders
                };
                if cas_attempts > 0 {
                    self.sim_cas_retries += cas_attempts;
                    let attempts = cas_attempts;
                    self.observe(now, child, cf, Point::CommitCasRetried(attempts));
                }
                let commit = cost.commit_cycles(write_words) + cost.cas_retry_cycles(cas_attempts);
                self.fibers[cf].stats.add(Phase::Commit, commit);
                self.fibers[cf].stats.add(Phase::Finalize, finalize);
                self.fibers[fid].stats.add(Phase::Idle, commit + finalize);
                now += commit + finalize;

                let child_writes = self.fibers[cf].writes.clone();
                if self.fibers[fid].speculative {
                    // Absorb into the speculative parent.
                    let child_reads = self.fibers[cf].reads.clone();
                    self.register_reads(fid, &child_reads);
                    merge_sorted(&mut self.fibers[fid].writes, &child_writes, |_| {});
                } else {
                    now += self.publish(&child_writes, now, cf);
                }
                let committed = Point::Committed {
                    retried: self.fibers[cf].retried,
                    since_fork: now.saturating_sub(self.fibers[cf].start_time),
                };
                self.observe(now, child, cf, committed);
                self.observe(now, joiner, fid, Point::JoinCommitted);

                let early = self.stopped_early(cf);
                // Inherit the child's still-speculating children so their
                // joins (in the inherited frames) find them.
                let inherited: Vec<(NodeId, usize)> =
                    self.fibers[cf].child_fibers.drain().collect();
                self.fibers[fid].child_fibers.extend(inherited);

                if early {
                    // Stack frame reconstruction: the joiner continues the
                    // child's remaining execution.
                    let frames = self.fibers[cf].frames.clone();
                    self.fibers[fid].frames.extend(frames);
                    if let Some(gc) = self.fibers[cf].pending_join.take() {
                        // The child was blocked on its own child; the
                        // joiner takes over that join.
                        if self.fibers[gc].finished.is_some() {
                            self.fibers[fid].time = now;
                            self.retire_fiber(cf, true);
                            return self.process_join(fid, gc);
                        }
                        self.fibers[fid].blocked_since = now;
                        self.fibers[fid].pending_join = Some(gc);
                        self.fibers[gc].waiter = Some(fid);
                        blocked = true;
                    }
                }
                self.retire_fiber(cf, true);
            }
            Some((reason, plan)) => {
                // Remember why, for the governor's per-site profile.
                let _ = self.fibers[cf].doomed.get_or_insert(reason);
                if reason == SpecFailure::ReadConflict {
                    // Grain-control telemetry: attribute the squash to the
                    // conflicting region (false-sharing flagged so the
                    // controller can split the grain out of the way).
                    let fs = self.fibers[cf].doomed_false_sharing;
                    if let Some(region) = self.fibers[cf].conflict_region.take() {
                        let counters = self.region_telemetry.entry(region).or_default();
                        counters[1] += 1;
                        if fs {
                            counters[2] += 1;
                        }
                    }
                }
                self.fibers[cf].stats.add(Phase::Finalize, finalize);
                self.fibers[fid].stats.add(Phase::Idle, finalize);
                now += finalize;
                // The doom itself was counted at publish time.
                self.observe(now, child, cf, Point::RolledBack { reason, plan });
                // The join-side repair work is the buffer discard plus the
                // re-execution frame push, both priced by `finalize`.
                let repair = finalize;
                self.observe(now, joiner, fid, Point::JoinRolledBack { reason, repair });
                // Cascading rollback confined to the child's subtree: every
                // speculative thread it spawned (and has not joined) is
                // discarded too.
                let grandchildren: Vec<usize> = self.fibers[cf]
                    .child_fibers
                    .drain()
                    .map(|(_, f)| f)
                    .collect();
                for gf in grandchildren {
                    self.cancel_subtree(gf, now);
                }
                if let Some(gc) = self.fibers[cf].pending_join.take() {
                    self.cancel_subtree(gc, now);
                }
                self.retire_fiber(cf, false);
                // The parent re-executes the child's region inline from the
                // beginning.
                let child_node = self.fibers[cf].frames[0].node;
                self.fibers[fid].frames.push(Frame {
                    node: child_node,
                    ip: 0,
                    reexec: true,
                });
            }
        }

        self.fibers[fid].time = now;
        !blocked
    }

    /// Cancel a speculative fiber and its whole subtree at `now` (cascading
    /// rollback).  Their work is wasted and their CPUs are reclaimed.
    fn cancel_subtree(&mut self, fid: usize, now: u64) {
        if self.fibers[fid].retired {
            return;
        }
        let grandchildren: Vec<usize> = self.fibers[fid]
            .child_fibers
            .drain()
            .map(|(_, f)| f)
            .collect();
        for gf in grandchildren {
            self.cancel_subtree(gf, now);
        }
        if let Some(gc) = self.fibers[fid].pending_join.take() {
            self.cancel_subtree(gc, now);
        }
        // Counted under what doomed it, if anything had.
        let blamed = self.fibers[fid].doomed.unwrap_or(SpecFailure::Cascaded);
        self.observe(now, self.lane_of(fid), fid, Point::Cascaded(blamed));
        self.retire_fiber(fid, false);
    }

    fn retire_fiber(&mut self, cf: usize, committed: bool) {
        if self.fibers[cf].retired {
            return;
        }
        self.fibers[cf].retired = true;
        self.live.retain(|&f| f != cf);
        debug_assert!(self.fibers[cf].speculative, "the root never retires");
        let fiber = &self.fibers[cf];
        // Live grain of the fiber's traffic for the per-site grain column,
        // taken at its lowest written — else read — address.
        let observed_grain = fiber
            .writes
            .first()
            .or(fiber.reads.first())
            .map(|&a| self.grain_at(a))
            .unwrap_or(self.config.commit_log.grain_log2);
        // Blamed on what doomed it, if anything had: drift (f) of `protocol`.
        let blamed = fiber.doomed.unwrap_or(SpecFailure::Cascaded);
        let thread = Retirement {
            site: fiber.site,
            model: fiber.model,
            fate: if committed {
                Ok(fiber.retried)
            } else {
                Err(blamed)
            },
            // By the doom's own classification: drift (c).
            false_sharing: blamed == SpecFailure::ReadConflict && fiber.doomed_false_sharing,
            grain_log2: observed_grain,
        };
        let stats = &mut self.fibers[cf].stats;
        let retired = protocol::retire(stats, thread, &self.governor, &mut self.totals);
        self.observe(self.fibers[cf].time, self.lane_of(cf), cf, retired);
        // Leave the reader registry and release the footprint: nothing
        // looks at a retired fiber's sets — except the contention model at
        // the writes of one cancelled in flight.
        let fiber = &mut self.fibers[cf];
        fiber.reads = Vec::new();
        let registered = std::mem::take(&mut fiber.read_ranges)
            .into_iter()
            .chain(std::mem::take(&mut fiber.regrained_ranges));
        for range in registered {
            self.log.unregister(range, cf);
        }
        if fiber.finished.is_some() {
            fiber.writes = Vec::new();
        } else if fiber.speculative {
            self.cancelled_in_flight.push(cf);
        }
        let cpu = fiber.cpu;
        self.release_cpu(cpu);
        self.active_speculative = self.active_speculative.saturating_sub(1);
        if self.most_speculative == Some(cf) {
            self.most_speculative = None;
        }
    }
}
