//! The event loop: fibers advancing through their segments, forks and
//! joins in virtual time.
//!
//! **Early synchronization (check points).**  When a joining thread
//! reaches its join point before the speculative child has finished, the
//! child is stopped at its next check point (here: the end of its
//! in-flight segment), its partial work is validated and committed, and
//! the joiner *continues the child's remaining execution itself* — the
//! synchronization-table / stack-frame-reconstruction mechanism of paper
//! §IV-E/H.  This is what lets loop speculation recycle CPUs and scale
//! past `#chunks ≈ #CPUs`.

use super::*;

impl<'a> Scheduler<'a> {
    /// The discrete-event loop.
    pub(super) fn event_loop(&mut self) {
        let root = self.spawn_fiber(0, false, 0, 0, 0, ForkModel::Mixed);
        debug_assert_eq!(root, 0);
        self.schedule(root, 0);
        while let Some(Reverse((time, _, fid))) = self.queue.pop() {
            self.pop_count += 1;
            if self.pop_count.is_multiple_of(FOSSIL_SWEEP_POPS) {
                self.fossil_collect(time);
            }
            // Sample off the virtual clock, so the series is
            // deterministic.
            if self.config.metrics.enabled && time >= self.next_metrics_tick {
                self.sample_metrics(time);
            }
            if self.fibers[fid].retired {
                continue;
            }
            self.resume(fid, time);
        }
    }

    pub(super) fn spawn_fiber(
        &mut self,
        node: NodeId,
        speculative: bool,
        cpu: usize,
        start: u64,
        site: u32,
        model: ForkModel,
    ) -> usize {
        let fid = self.fibers.len();
        self.fibers
            .push(Fiber::new(cpu, speculative, node, start, site, model));
        if speculative {
            self.live.push(fid);
        }
        fid
    }

    pub(super) fn schedule(&mut self, fid: usize, time: u64) {
        self.queue_seq += 1;
        self.queue.push(Reverse((time, self.queue_seq, fid)));
    }

    /// Advance fiber `fid` at global time `now`.
    fn resume(&mut self, fid: usize, now: u64) {
        if self.fibers[fid].time < now {
            self.fibers[fid].time = now;
        }

        // A completed work segment: apply its effects.
        if self.fibers[fid].seg_in_flight {
            self.apply_segment_effects(fid);
            if self.fibers[fid].stop_requested {
                self.finish_fiber(fid);
                return;
            }
        }

        // A child we were blocked on has stopped: perform the join.
        if let Some(child) = self.fibers[fid].pending_join.take() {
            let idle = self.fibers[fid]
                .time
                .saturating_sub(self.fibers[fid].blocked_since);
            self.fibers[fid].stats.add(Phase::Idle, idle);
            if !self.process_join(fid, child) {
                return;
            }
        }

        loop {
            if self.fibers[fid].speculative && self.fibers[fid].stop_requested {
                self.finish_fiber(fid);
                return;
            }
            let frame = *self.fibers[fid].frames.last().expect("frame present");
            let recording: &'a Recording = self.recording;
            let events = &recording.nodes[frame.node].events;
            if frame.ip >= events.len() {
                if self.fibers[fid].frames.len() > 1 {
                    self.fibers[fid].frames.pop();
                    continue;
                }
                self.finish_fiber(fid);
                return;
            }
            match events[frame.ip] {
                SimEvent::Seg(ref seg) => {
                    let start = self.fibers[fid].time;
                    let end = start + self.segment_cycles(seg, self.fibers[fid].speculative);
                    self.fibers[fid].segment_started = start;
                    self.fibers[fid].seg_in_flight = true;
                    self.schedule(fid, end);
                    return;
                }
                SimEvent::Fork {
                    child,
                    model,
                    point,
                } => {
                    self.process_fork(fid, child, model, point);
                    self.bump_ip(fid);
                }
                SimEvent::Join { child } => {
                    self.bump_ip(fid);
                    let child_fiber = self.fibers[fid].child_fibers.remove(&child);
                    match child_fiber {
                        None => {
                            // Not speculated: execute the child inline.
                            self.fibers[fid].frames.push(Frame {
                                node: child,
                                ip: 0,
                                reexec: false,
                            });
                        }
                        Some(cf) => {
                            if self.fibers[cf].finished.is_some() {
                                if !self.process_join(fid, cf) {
                                    return;
                                }
                            } else {
                                // Early synchronization: ask the child to
                                // stop at its next check point.
                                let now = self.fibers[fid].time;
                                self.fibers[fid].blocked_since = now;
                                self.fibers[fid].pending_join = Some(cf);
                                self.fibers[cf].waiter = Some(fid);
                                self.request_stop(cf, now);
                                return;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Ask fiber `cf` to stop at its next check point.
    pub(super) fn request_stop(&mut self, cf: usize, now: u64) {
        self.fibers[cf].stop_requested = true;
        if self.fibers[cf].seg_in_flight {
            // Stops when the in-flight segment (its next check point)
            // completes; the completion event is already scheduled.
            return;
        }
        if self.fibers[cf].pending_join.is_some() {
            // The child is itself blocked waiting for a grandchild.  It
            // stops right away; its joiner will inherit that pending join.
            self.fibers[cf].time = self.fibers[cf].time.max(now);
            self.finish_fiber(cf);
            return;
        }
        if self.fibers[cf].finished.is_none() && self.fibers[cf].start_time > now {
            // Not even started: it stops immediately with no work done.
            self.fibers[cf].time = self.fibers[cf].start_time;
            self.finish_fiber(cf);
        }
        // Otherwise the fiber has a queued resume and will observe the
        // stop request at its next scheduling point.
    }

    pub(super) fn bump_ip(&mut self, fid: usize) {
        let frame = self.fibers[fid].frames.last_mut().expect("frame present");
        frame.ip += 1;
    }

    /// Virtual cycles `seg` costs at speculative or critical pricing.
    pub(super) fn segment_cycles(&self, seg: &Segment, speculative: bool) -> u64 {
        let cost = &self.config.cost;
        if speculative {
            cost.segment_cycles_speculative(seg.work, seg.loads, seg.stores)
        } else {
            cost.segment_cycles(seg.work, seg.loads, seg.stores)
        }
    }

    fn finish_fiber(&mut self, fid: usize) {
        if self.fibers[fid].finished.is_some() {
            return;
        }
        let time = self.fibers[fid].time;
        self.fibers[fid].finished = Some(time);
        if let Some(waiter) = self.fibers[fid].waiter {
            if self.fibers[waiter].pending_join == Some(fid) {
                self.schedule(waiter, time);
            }
        }
    }

    /// Whether fiber `cf` stopped before exhausting its own node's events.
    pub(super) fn stopped_early(&self, cf: usize) -> bool {
        let fiber = &self.fibers[cf];
        if fiber.frames.len() > 1 || fiber.pending_join.is_some() {
            return true;
        }
        let frame = fiber.frames[0];
        frame.ip < self.recording.nodes[frame.node].events.len()
    }
}
