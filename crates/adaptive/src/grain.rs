//! The online adaptive-grain **control plane**: per-region grain policy
//! over the commit log's live version table.
//!
//! PR 3 made the conflict-detection grain a static knob and PR 4 produced
//! precise per-range false-sharing telemetry; this module closes the loop.
//! A [`GrainController`] consumes per-region counter snapshots
//! ([`RegionProfile`]: stamps, true conflicts, false-sharing suspects,
//! value-predict retries) and emits [`GrainAction`]s — coarsen a calm
//! region one step up the word → line → page ladder to cut log traffic,
//! re-split a region whose false-sharing suspects spike so genuine
//! parallelism stops being doomed by the grain.
//!
//! The controller is *mechanism-agnostic*: the native runtime applies its
//! actions through `CommitLog::regrain`, the discrete-event simulator
//! through its region-grain map, so one policy drives both layers and the
//! replay stays deterministic.
//!
//! Policy shape (hysteresis on both edges):
//!
//! * **Split** when a tick's conflict-plus-retry delta reaches
//!   `SPLIT_CONFLICTS` — a contended region wants exactness (a coarse
//!   grain widens every conflict's collateral, and suspects alone
//!   undercount: the first genuine word hit reclassifies a mixed doom as
//!   true sharing).  One ladder step toward the floor grain per tick,
//!   with a per-region cooldown of `COOLDOWN_TICKS` so a single spike
//!   cannot thrash the table.
//! * **Coarsen** when a region has stamped at least `COARSEN_STAMPS`
//!   ranges in each of `CALM_TICKS` consecutive conflict-free ticks —
//!   activity with no trouble means the grain is paying stamp traffic
//!   for exactness nobody needs.  One ladder step toward page grain per
//!   decision.
//!
//! Starting coarse ([`GrainControlConfig::initial_grain_log2`], default
//! page) is the optimistic default: dense-numeric regions never pay
//! word-grain traffic at all, and the first suspect spike walks a
//! pointer-chasing region back down within a few ticks.

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

/// Configuration of the adaptive-grain controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrainControlConfig {
    /// Master switch; when false the runtime keeps the static grain of
    /// `CommitLogConfig` and never builds a controller.
    pub enabled: bool,
    /// Grain every region starts at (log2 bytes), clamped by the
    /// mechanism layer into `[floor grain, region size]`.  Page by
    /// default: optimistic-coarse, split on evidence.
    pub initial_grain_log2: u32,
    /// Commits between controller ticks (the runtime counts join/commit
    /// events, the simulator counts publishes — both deterministic in
    /// their own time base).
    pub tick_commits: u64,
}

impl Default for GrainControlConfig {
    fn default() -> Self {
        GrainControlConfig {
            enabled: false,
            initial_grain_log2: PAGE_GRAIN_LOG2,
            tick_commits: 4,
        }
    }
}

impl GrainControlConfig {
    /// The enabled controller with default tuning: start at page grain,
    /// split on the first false-sharing suspects, re-coarsen calm
    /// regions.
    pub fn adaptive() -> Self {
        GrainControlConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Set the starting grain (builder style).
    pub fn initial_grain_log2(mut self, grain_log2: u32) -> Self {
        self.initial_grain_log2 = grain_log2;
        self
    }

    /// Set the tick cadence in commits (builder style).
    pub fn tick_commits(mut self, commits: u64) -> Self {
        self.tick_commits = commits.max(1);
        self
    }
}

/// One regrain decision: move `region` to `new_grain_log2`.
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

/// Summary counters of the controller's own activity, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrainControlStats {
    /// Controller ticks executed.
    pub ticks: u64,
    /// Coarsen steps emitted.
    pub coarsened: u64,
    /// Re-split steps emitted.
    pub split: u64,
}

/// The adaptive-grain controller (policy only; the caller applies the
/// returned actions to its mechanism layer).
#[derive(Debug)]
pub struct GrainController {
    config: GrainControlConfig,
    /// Floor grain of the underlying table — re-splits never go below it.
    floor_grain_log2: u32,
    regions: HashMap<RegionId, RegionState>,
    stats: GrainControlStats,
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
    pub fn new(config: GrainControlConfig, floor_grain_log2: u32) -> Self {
        GrainController {
            config,
            floor_grain_log2,
            regions: HashMap::new(),
            stats: GrainControlStats::default(),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &GrainControlConfig {
        &self.config
    }

    /// Activity counters so far.
    pub fn stats(&self) -> GrainControlStats {
        self.stats
    }

    /// Forget all per-region state (start of a new run).
    pub fn reset(&mut self) {
        self.regions.clear();
        self.stats = GrainControlStats::default();
    }

    /// One controller tick: difference `profiles` (cumulative per-region
    /// counters, ascending by region) against the previous tick and
    /// decide regrains.  Deterministic: actions come out ascending by
    /// region id, one step per region per tick.
    pub fn tick(&mut self, profiles: &[RegionProfile]) -> Vec<GrainAction> {
        self.stats.ticks += 1;
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
                self.stats.split += 1;
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
                self.stats.coarsened += 1;
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
        assert_eq!(c.stats().coarsened, 2);
        assert_eq!(c.stats().split, 0);
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
        assert_eq!(c.stats().split, 2);
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

    #[test]
    fn reset_forgets_state() {
        let mut c = controller();
        c.tick(&[profile(0, PAGE_GRAIN_LOG2, 5, 2)]);
        assert!(c.stats().ticks > 0);
        c.reset();
        assert_eq!(c.stats(), GrainControlStats::default());
    }

    #[test]
    fn config_presets() {
        assert!(!GrainControlConfig::default().enabled);
        let a = GrainControlConfig::adaptive();
        assert!(a.enabled);
        assert_eq!(a.initial_grain_log2, PAGE_GRAIN_LOG2);
        assert_eq!(
            GrainControlConfig::adaptive().tick_commits(0).tick_commits,
            1,
            "cadence clamps to at least one commit"
        );
    }
}
