//! The adaptive-grain **controller**: a per-region grain policy over
//! commit-log telemetry.  It is no longer applied anywhere — a commit log
//! has one grain, fixed at construction — and its only caller is the
//! benchmark's `adaptive.grain.tick_ns` probe, which ROADMAP item 2(e)
//! deletes along with this module.
//!
//! A [`GrainController`] consumes per-region counter snapshots
//! ([`RegionProfile`]: stamps, conflicts, retries) and emits
//! [`GrainAction`]s — coarsen a calm region one step up the word → line →
//! page ladder, re-split a contended one toward the floor grain:
//!
//! * **Split** when a tick's conflict-plus-retry delta reaches
//!   `SPLIT_CONFLICTS`, one ladder step per tick, then a cooldown of
//!   `COOLDOWN_TICKS`.
//! * **Coarsen** when a region has stamped at least `COARSEN_STAMPS`
//!   ranges in each of `CALM_TICKS` consecutive conflict-free ticks.

use std::collections::HashMap;

use mutls_membuf::{RegionId, RegionProfile, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2};

/// Conflict-plus-retry delta within one tick that triggers a re-split.
/// Deliberately broader than false-sharing suspects alone: a coarse grain
/// only pays off on *calm* regions, and once a genuine word is hit the
/// false-sharing half of a mixed doom is reclassified as true sharing —
/// so any contention at a coarser-than-floor grain is split evidence.
const SPLIT_CONFLICTS: u64 = 1;
/// Minimum stamp delta per tick for a region to count as *active* (idle
/// regions are left alone — no evidence either way).
const COARSEN_STAMPS: u64 = 8;
/// Consecutive active, conflict-free ticks before a coarsen step.
const CALM_TICKS: u32 = 2;
/// Ticks a region rests after any regrain before it may move again
/// (hysteresis against thrash).
const COOLDOWN_TICKS: u32 = 2;

/// Configuration of the grain controller: the controller reads no
/// setting, so there is none.  Only the benchmark's grain-controller probe
/// builds one (ROADMAP item 2(e) deletes it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrainControlConfig;

impl GrainControlConfig {
    /// The controller's configuration.  Only the benchmark's
    /// grain-controller probe calls it (ROADMAP item 2(e) deletes it).
    pub fn adaptive() -> Self {
        GrainControlConfig
    }
}

/// One grain decision: move `region` to `new_grain_log2`.  Only the
/// benchmark's grain-controller probe sees one (ROADMAP item 2(e) deletes
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrainAction {
    /// The region to regrain.
    pub region: RegionId,
    /// The target grain (log2 bytes).
    pub new_grain_log2: u32,
    /// True for a coarsen step, false for a re-split.
    pub coarsen: bool,
}

/// Per-region controller state: last-seen cumulative counters plus the
/// hysteresis bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct RegionState {
    stamps: u64,
    conflicts: u64,
    retries: u64,
    calm_streak: u32,
    cooldown: u32,
}

/// The grain controller (policy only).  Only the benchmark's
/// grain-controller probe builds one (ROADMAP item 2(e) deletes it).
#[derive(Debug)]
pub struct GrainController {
    /// Floor grain of the underlying table — re-splits never go below it.
    floor_grain_log2: u32,
    regions: HashMap<RegionId, RegionState>,
}

/// The grain ladder the controller walks: word → line → page, clipped to
/// `[floor, page]`.
fn step_coarser(grain_log2: u32) -> u32 {
    if grain_log2 < LINE_GRAIN_LOG2 {
        LINE_GRAIN_LOG2
    } else {
        PAGE_GRAIN_LOG2
    }
}

fn step_finer(grain_log2: u32, floor: u32) -> u32 {
    let next = if grain_log2 > LINE_GRAIN_LOG2 {
        LINE_GRAIN_LOG2
    } else {
        WORD_GRAIN_LOG2
    };
    next.max(floor)
}

impl GrainController {
    /// Build a controller for a version table whose floor grain is
    /// `floor_grain_log2`.
    pub fn new(_config: GrainControlConfig, floor_grain_log2: u32) -> Self {
        GrainController {
            floor_grain_log2,
            regions: HashMap::new(),
        }
    }

    /// One controller tick: difference `profiles` (cumulative per-region
    /// counters, ascending by region) against the previous tick and
    /// decide regrains.  Deterministic: actions come out ascending by
    /// region id, one step per region per tick.
    pub fn tick(&mut self, profiles: &[RegionProfile]) -> Vec<GrainAction> {
        let mut actions = Vec::new();
        for profile in profiles {
            let state = self.regions.entry(profile.region).or_default();
            let stamps_delta = profile.stamps.saturating_sub(state.stamps);
            let conflicts_delta = profile.conflicts.saturating_sub(state.conflicts);
            let retries_delta = profile.retries.saturating_sub(state.retries);
            state.stamps = profile.stamps;
            state.conflicts = profile.conflicts;
            state.retries = profile.retries;
            if state.cooldown > 0 {
                state.cooldown -= 1;
                // Trouble during cooldown still resets the calm streak so
                // the region cannot coarsen the moment the cooldown ends.
                // (Suspects are a subset of conflicts, so the conflict
                // delta already covers them.)
                if conflicts_delta > 0 || retries_delta > 0 {
                    state.calm_streak = 0;
                }
                continue;
            }
            // Split signal: the region is contended at a coarser-than-
            // floor grain.  False-sharing suspects are the sharpest
            // evidence (the grain is *manufacturing* conflicts) and a
            // value-predict retry is a suspect that happened to be
            // cheap — but plain conflicts count too: a coarse grain only
            // pays off on calm regions, while on a contended region it
            // widens every conflict's collateral (readers of neighbour
            // words get range-doomed, and the first genuine word hit
            // reclassifies the whole doom as true sharing, hiding the
            // false-sharing half of the evidence).  Contended regions
            // therefore walk back toward exactness unconditionally.
            if conflicts_delta + retries_delta >= SPLIT_CONFLICTS
                && profile.grain_log2 > self.floor_grain_log2
            {
                let to = step_finer(profile.grain_log2, self.floor_grain_log2);
                actions.push(GrainAction {
                    region: profile.region,
                    new_grain_log2: to,
                    coarsen: false,
                });
                state.calm_streak = 0;
                state.cooldown = COOLDOWN_TICKS;
                continue;
            }
            // Calm edge: active traffic, zero trouble.
            if conflicts_delta == 0 && retries_delta == 0 {
                if stamps_delta >= COARSEN_STAMPS {
                    state.calm_streak += 1;
                } // idle ticks neither build nor reset the streak
            } else {
                state.calm_streak = 0;
            }
            if state.calm_streak >= CALM_TICKS && profile.grain_log2 < PAGE_GRAIN_LOG2 {
                actions.push(GrainAction {
                    region: profile.region,
                    new_grain_log2: step_coarser(profile.grain_log2),
                    coarsen: true,
                });
                state.calm_streak = 0;
                state.cooldown = COOLDOWN_TICKS;
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(region: RegionId, grain: u32, stamps: u64, fs: u64) -> RegionProfile {
        RegionProfile {
            region,
            grain_log2: grain,
            stamps,
            conflicts: fs,
            false_sharing: fs,
            retries: 0,
        }
    }

    fn controller() -> GrainController {
        GrainController::new(GrainControlConfig::adaptive(), WORD_GRAIN_LOG2)
    }

    #[test]
    fn calm_active_region_coarsens_up_the_ladder() {
        let mut c = controller();
        // Calm active ticks at 10 stamps each, the grain following the
        // actions: two calm ticks coarsen, two cooldown ticks rest.
        let mut grain = WORD_GRAIN_LOG2;
        let mut moved = Vec::new();
        for tick in 1..=10u64 {
            for action in c.tick(&[profile(0, grain, 10 * tick, 0)]) {
                assert!(action.coarsen);
                grain = action.new_grain_log2;
                moved.push((tick, grain));
            }
        }
        // Word → line at tick 2, line → page at tick 6; then the ladder
        // tops out.
        assert_eq!(moved, [(2, LINE_GRAIN_LOG2), (6, PAGE_GRAIN_LOG2)]);
    }

    #[test]
    fn suspect_spike_resplits_toward_the_floor() {
        let mut c = controller();
        let actions = c.tick(&[profile(3, PAGE_GRAIN_LOG2, 5, 2)]);
        assert_eq!(
            actions,
            vec![GrainAction {
                region: 3,
                new_grain_log2: LINE_GRAIN_LOG2,
                coarsen: false
            }]
        );
        // Two ticks of cooldown, however many suspects arrive.
        assert!(c.tick(&[profile(3, LINE_GRAIN_LOG2, 10, 4)]).is_empty());
        assert!(c.tick(&[profile(3, LINE_GRAIN_LOG2, 15, 6)]).is_empty());
        let actions = c.tick(&[profile(3, LINE_GRAIN_LOG2, 20, 8)]);
        assert_eq!(actions[0].new_grain_log2, WORD_GRAIN_LOG2);
        // At the floor there is nowhere finer to go.
        for stamps in [25, 30, 35] {
            assert!(c
                .tick(&[profile(3, WORD_GRAIN_LOG2, stamps, 10)])
                .is_empty());
        }
    }

    #[test]
    fn cooldown_and_idle_regions_hold_still() {
        let mut c = controller();
        assert!(c.tick(&[profile(0, WORD_GRAIN_LOG2, 10, 0)]).is_empty());
        assert_eq!(c.tick(&[profile(0, WORD_GRAIN_LOG2, 20, 0)]).len(), 1);
        // Cooldown: two ticks of rest even though the region stays calm.
        assert!(c.tick(&[profile(0, LINE_GRAIN_LOG2, 30, 0)]).is_empty());
        assert!(c.tick(&[profile(0, LINE_GRAIN_LOG2, 40, 0)]).is_empty());
        // Idle ticks (no stamp delta) never build a calm streak.
        assert!(c.tick(&[profile(0, LINE_GRAIN_LOG2, 40, 0)]).is_empty());
        assert!(c.tick(&[profile(0, LINE_GRAIN_LOG2, 40, 0)]).is_empty());
        // Active again → moves again, after a full calm streak.
        assert!(c.tick(&[profile(0, LINE_GRAIN_LOG2, 50, 0)]).is_empty());
        let actions = c.tick(&[profile(0, LINE_GRAIN_LOG2, 60, 0)]);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].new_grain_log2, PAGE_GRAIN_LOG2);
    }

    #[test]
    fn retries_count_as_split_evidence_and_reset_calm() {
        // A region whose conflicts keep being repaired by value-predict
        // retries is still false-sharing at the current grain: it must
        // split, not coarsen.
        let mut c = controller();
        let p = RegionProfile {
            region: 7,
            grain_log2: PAGE_GRAIN_LOG2,
            stamps: 100,
            conflicts: 0,
            false_sharing: 0,
            retries: 3,
        };
        let actions = c.tick(&[p]);
        assert_eq!(actions.len(), 1);
        assert!(!actions[0].coarsen);
    }
}
