//! The live per-region grains of the simulated log, and the grain tick
//! that moves them (`protocol::grain_tick`: the native cadence and
//! controller, the replay's regrain and its price).

use super::*;

impl<'a> Scheduler<'a> {
    /// The live grain of `region`: the per-region map, falling back to
    /// the controller's initial grain (control enabled) or the
    /// configured grain (disabled).
    fn grain_of_region(&self, region: u64) -> u32 {
        *self.grains.get(&region).unwrap_or(&self.default_grain)
    }

    /// The live grain tracking `addr` right now.
    pub(super) fn grain_at(&self, addr: Addr) -> u32 {
        self.grain_of_region(addr >> self.region_log2)
    }

    /// `addr`'s conflict-detection range id at its region's current
    /// grain, **prefixed with the region id**: numeric `addr >> grain`
    /// ids of different regions at different live grains collide (the
    /// native log dedups by concrete slot for the same reason), and a
    /// collision here would manufacture phantom cross-region conflicts
    /// in the replay.  The suffix is the offset-range within the region,
    /// which fits in `region_log2 - floor` bits at any live grain.
    pub(super) fn range_at(&self, addr: Addr) -> u64 {
        let region = addr >> self.region_log2;
        let offset = addr & ((1u64 << self.region_log2) - 1);
        (region << (self.region_log2 - self.config.commit_log.grain_log2))
            | (offset >> self.grain_of_region(region))
    }

    /// Census of the live per-region grains over touched regions — what
    /// the (simulated) grain controller converged to.  A BTreeMap, because
    /// the iteration order of a hash map must not reach a serialized
    /// report or series.
    pub(super) fn grain_census(&self) -> BTreeMap<u32, u64> {
        let mut census = BTreeMap::new();
        for &region in self.region_telemetry.keys() {
            *census.entry(self.grain_of_region(region)).or_insert(0) += 1;
        }
        census
    }

    /// Every `tick_commits` publishes, run one deterministic grain
    /// controller tick: snapshot the per-region telemetry (ascending by
    /// region), apply the regrains to the region-grain map, and
    /// conservatively doom every in-flight reader of a regrained region
    /// (mirroring the native whole-region flush — value prediction
    /// retries them at their joins).  Returns the cycles charged to the
    /// publishing fiber: `regrain_per_slot` per flushed floor-grain slot
    /// plus `doom_signal` per doomed reader.
    pub(super) fn tick_grain_controller(&mut self, time: u64) -> u64 {
        if self.grain_controller.is_none()
            || !protocol::grain_tick_due(self.publish_count, self.config.grain_control.tick_commits)
        {
            return 0;
        }
        let mut profiles: Vec<RegionProfile> = Vec::new();
        let floor = self.config.commit_log.grain_log2;
        let mut regions: Vec<u64> = self.region_telemetry.keys().copied().collect();
        regions.sort_unstable();
        for region in regions {
            let [stamps, conflicts, false_sharing, retries] = self.region_telemetry[&region];
            profiles.push(RegionProfile {
                region,
                grain_log2: self.grain_of_region(region),
                stamps,
                conflicts,
                false_sharing,
                retries,
            });
        }
        // Taken out for the tick: applying a regrain borrows all of `self`.
        let mut controller = self.grain_controller.take().expect("checked above");
        let slots_per_region = 1u64 << (self.region_log2 - floor);
        let mut cost = 0;
        let mut doomed = 0u64;
        let points = protocol::grain_tick(&mut controller, &profiles, false, |action| {
            let from = self.grain_of_region(action.region);
            self.grains.insert(action.region, action.new_grain_log2);
            self.sim_regrains += 1;
            cost += self.config.cost.regrain_cycles(slots_per_region);
            // The native regrain stamps the whole region and dooms its
            // registered readers; mirror it by dooming every in-flight
            // speculative fiber with a read in the region.  The doom is
            // range-induced (no word was actually written), so value
            // prediction clears it at the join.
            let mut doomed_here = 0u64;
            for i in 0..self.live.len() {
                let fid = self.live[i];
                let fiber = &self.fibers[fid];
                // The new-grain ranges of its reads in the region.
                let mut regrained: Vec<u64> = fiber
                    .reads
                    .iter()
                    .filter(|&&a| a >> self.region_log2 == action.region)
                    .map(|&a| self.range_at(a))
                    .collect();
                if regrained.is_empty() {
                    continue;
                }
                regrained.dedup();
                // `read_ranges` keeps the ids the reads were registered
                // under; also enter the fiber under the new ones, so a
                // later publish of a word it read still finds it.
                for range in regrained {
                    let fiber = &mut self.fibers[fid];
                    if fiber.read_ranges.binary_search(&range).is_err()
                        && !fiber.regrained_ranges.contains(&range)
                    {
                        fiber.regrained_ranges.push(range);
                        self.log.register(range, fid);
                    }
                }
                let fiber = &mut self.fibers[fid];
                if fiber.doomed.is_none() && fiber.start_time < time {
                    fiber.doomed = Some(SpecFailure::ReadConflict);
                    fiber.doomed_false_sharing = true;
                    fiber.conflict_region = Some(action.region);
                    doomed_here += 1;
                }
            }
            doomed += doomed_here;
            (from, doomed_here)
        });
        self.grain_controller = Some(controller);
        // Control-plane events use the lane past the last CPU, like the
        // native recorder's dedicated grain-controller lane; it has no
        // thread, hence no counters.
        let at = (time, self.sim_commits);
        let lane = (self.config.num_cpus + 1) as u32;
        for point in points {
            let nobody = &mut ThreadCounters::default();
            ledger::observe(&mut self.books, at, lane, 0, nobody, point);
        }
        cost + self.config.cost.doom_cycles(doomed)
    }
}
