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
        let read_words = self.fibers[cf].reads.len();
        let read_ranges = self.fibers[cf].read_ranges.len();
        let write_words = self.fibers[cf].writes.len();
        let (child, joiner) = (self.lane_of(cf), self.lane_of(fid));
        let ranges = read_ranges as u32;
        self.observe(now, child, Point::ValidateBegin(ranges));
        let validation = cost.validation_cycles_grained(read_words, read_ranges);
        self.fibers[cf].stats.add(Phase::Validation, validation);
        self.fibers[fid].stats.add(Phase::Idle, validation);
        now += validation;

        let mut retry = None;
        // Recovery rung 1 — value-predict retry: a range-only
        // (false-sharing) conflict means every word the fiber read still
        // holds its first-read value, so a value re-validation pass
        // repairs the join in place, no re-execution.
        if self.fibers[cf].doomed == Some(SpecFailure::ReadConflict)
            && self.fibers[cf].doomed_false_sharing
        {
            let cycles = cost.retry_cycles(read_words);
            self.fibers[cf].stats.add(Phase::Validation, cycles);
            self.fibers[fid].stats.add(Phase::Idle, cycles);
            now += cycles;
            retry = Some(cycles);
            self.fibers[cf].retried = true;
            self.fibers[cf].doomed = None;
            self.fibers[cf].doomed_false_sharing = false;
        }

        // Price the version-ring probes the fiber survived on in flight —
        // deterministic (the fiber counted them), and far cheaper than the
        // value-predict retries they replace.
        let precise = self.fibers[cf].precise_passes;
        if precise > 0 {
            let cycles = cost.ring_probe_cycles(precise);
            self.fibers[cf].stats.add(Phase::Validation, cycles);
            self.fibers[fid].stats.add(Phase::Idle, cycles);
            now += cycles;
            self.observe(now, child, Point::RingProbesPriced(cycles));
        }
        let doomed = self.fibers[cf].doomed;
        let facts = JoinFacts {
            // Whatever doomed the fiber and was not repaired.
            dead: doomed,
            valid: doomed.is_none(),
            retried: self.fibers[cf].retried,
            precise_pass: precise > 0,
        };
        let JoinVerdict {
            outcome,
            mut rollback,
        } = protocol::join_verdict(facts);
        let validated = Point::Validated {
            outcome,
            took: validation,
            retry,
        };
        self.observe(now, child, validated);
        // Injected rollback — drawn after a validation that passed, as in
        // the paper's §V-D sensitivity experiment.
        if rollback.is_none()
            && protocol::injected_draw(self.config.rollback_probability, || &mut self.rng)
        {
            let injected = JoinFacts {
                dead: Some(SpecFailure::Injected),
                ..JoinFacts::default()
            };
            rollback = protocol::join_verdict(injected).rollback;
        }

        let finalize = cost.finalize_cycles(read_words + write_words);
        let mut blocked = false;
        match rollback {
            None => {
                // The log has one committer at a time (its `stamp.rs`
                // header), so a publish pays no contention.
                let commit = cost.commit_cycles(write_words);
                self.fibers[cf].stats.add(Phase::Commit, commit);
                self.fibers[cf].stats.add(Phase::Finalize, finalize);
                self.fibers[fid].stats.add(Phase::Idle, commit + finalize);
                now += commit + finalize;

                // The child retires below and nothing reads its sets before
                // then (`publish` skips the writer, `stopped_early` reads
                // frames), so they move, not copy.
                let child_writes = std::mem::take(&mut self.fibers[cf].writes);
                if self.fibers[fid].speculative {
                    // Absorb into the speculative parent.
                    let child_reads = std::mem::take(&mut self.fibers[cf].reads);
                    self.register_reads(fid, &child_reads);
                    self.fibers[fid].writes.union(&child_writes);
                } else {
                    now += self.publish(&child_writes, now, cf);
                }
                let committed = Point::Committed {
                    retried: self.fibers[cf].retried,
                    since_fork: now.saturating_sub(self.fibers[cf].start_time),
                };
                self.observe(now, child, committed);

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
                            self.retire_fiber(cf, Ok(self.fibers[cf].retried));
                            return self.process_join(fid, gc);
                        }
                        self.fibers[fid].blocked_since = now;
                        self.fibers[fid].pending_join = Some(gc);
                        self.fibers[gc].waiter = Some(fid);
                        blocked = true;
                    }
                }
                self.retire_fiber(cf, Ok(self.fibers[cf].retried));
            }
            Some((reason, plan)) => {
                self.fibers[cf].stats.add(Phase::Finalize, finalize);
                self.fibers[fid].stats.add(Phase::Idle, finalize);
                now += finalize;
                // The doom itself was counted at publish time.
                self.observe(now, child, Point::RolledBack { reason, plan });
                // The join-side repair work is the buffer discard plus the
                // re-execution frame push, both priced by `finalize`.
                let repair = finalize;
                self.observe(now, joiner, Point::JoinRolledBack(repair));
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
                self.retire_fiber(cf, Err(reason));
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
        self.observe(now, self.lane_of(fid), Point::Cascaded);
        self.retire_fiber(fid, Err(SpecFailure::Cascaded));
    }

    /// Close fiber `cf`'s books with `fate` (see `protocol::Retirement`)
    /// and free its CPU.
    fn retire_fiber(&mut self, cf: usize, fate: Result<bool, SpecFailure>) {
        if self.fibers[cf].retired {
            return;
        }
        self.fibers[cf].retired = true;
        debug_assert!(self.fibers[cf].speculative, "the root never retires");
        let fiber = &self.fibers[cf];
        let thread = Retirement {
            site: fiber.site,
            model: fiber.model,
            fate,
        };
        let stats = &mut self.fibers[cf].stats;
        let retired = protocol::retire(stats, thread, &self.governor, &mut self.speculative);
        self.observe(self.fibers[cf].time, self.lane_of(cf), retired);
        // Leave the reader registry and release the footprint: nothing
        // looks at a retired fiber's sets.
        let fiber = &mut self.fibers[cf];
        fiber.reads = Runs::default();
        fiber.writes = Runs::default();
        let cpu = fiber.cpu;
        self.log
            .unregister(&std::mem::take(&mut fiber.read_ranges), cpu);
        self.release_cpu(cpu);
        self.active_speculative = self.active_speculative.saturating_sub(1);
        if self.most_speculative == Some(cf) {
            self.most_speculative = None;
        }
    }
}
