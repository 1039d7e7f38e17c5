//! A fork point: `protocol::admit_fork` decides, this file gathers the
//! forker's facts, charges the scan and the fork to its clock and spawns
//! the fiber.

use super::*;

impl<'a> Scheduler<'a> {
    /// The first free simulated CPU; the fiber spawned on it takes it.
    fn free_cpu(on_cpu: &[Option<usize>]) -> Option<usize> {
        on_cpu.iter().position(Option::is_none).map(|i| i + 1)
    }

    pub(super) fn release_cpu(&mut self, cpu: usize) {
        self.on_cpu[cpu - 1] = None;
    }

    pub(super) fn process_fork(
        &mut self,
        fid: usize,
        child: NodeId,
        recorded_model: ForkModel,
        point: u32,
    ) {
        let forker = (self.fibers[fid].cpu as u32, point);
        let now = self.fibers[fid].time;
        self.observe(now, forker, Point::ForkAttempt);
        // Mirror the native recovery engine: a speculative fiber
        // executing a rollback-inherited frame may not re-speculate (its
        // children would read underneath the uncommitted overlay); the
        // re-execution stays inline.
        let fiber = &mut self.fibers[fid];
        let pinned = fiber.speculative && fiber.frames.iter().any(|f| f.reexec);
        let requested = self.config.fork_model.unwrap_or(recorded_model);
        let cost = self.config.cost;
        let facts = Forker {
            speculative: fiber.speculative,
            any_in_flight: self.active_speculative != 0,
            latest: self.most_speculative == Some(fid),
        };

        // The governor may suppress the fork or pick a per-site model; a
        // denial is decided before any fork overhead is spent, exactly as
        // in the native runtime.
        let on_cpu = &self.on_cpu;
        let admission = protocol::admit_fork(pinned, &self.governor, point, requested, |model| {
            // Scanning for an idle CPU costs time on the forker.
            fiber.time += cost.find_cpu;
            fiber.stats.add(Phase::FindCpu, cost.find_cpu);
            protocol::claim_cpu(model, facts, || Self::free_cpu(on_cpu))
        });
        let (model, cpu) = match admission {
            Ok(granted) => granted,
            Err((policy, _)) => {
                // The governor ruled (before the scan was charged) unless
                // the pin spared it the question; a denial that was not the
                // governor's own is a failed fork.
                if policy != DenyPolicy::Reexec {
                    let allowed = policy != DenyPolicy::Governor;
                    self.observe(now, forker, Point::GovernorRuled(allowed));
                }
                if policy != DenyPolicy::Governor {
                    let now = self.fibers[fid].time;
                    self.observe(now, forker, Point::ForkDenied(policy));
                }
                return;
            }
        };
        self.observe(now, forker, Point::GovernorRuled(true));
        self.fibers[fid].time += cost.fork;
        self.fibers[fid].stats.add(Phase::Fork, cost.fork);

        let start = self.fibers[fid].time + cost.spawn_latency;
        let child_fiber = self.spawn_fiber(child, true, cpu, start, point, model);
        self.observe(start, forker, Point::SpecStart(cpu as u32));
        self.governor.record_fork(point);
        self.fibers[fid].child_fibers.insert(child, child_fiber);
        self.most_speculative = Some(child_fiber);
        self.active_speculative += 1;
        self.schedule(child_fiber, start);
    }
}
