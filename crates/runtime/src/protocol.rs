//! The protocol: what the paper's rules decide, said once.
//!
//! Who may fork under which model (§IV-B), what a join makes of a validated
//! or a conflicting child (§IV-F), what a retired thread leaves at its fork
//! site, when the grain controller ticks and when an injected rollback is
//! drawn are *decisions*: functions of a handful of values.  The native
//! runtime takes them on the wall clock, the simulator's replay on the
//! virtual one, and both call the functions below — as both call
//! [`ledger::observe`](crate::ledger::observe) for what is written down.
//! The caller owns *when* and *how* (acquiring a CPU, reading a buffer or a
//! fiber's footprint, charging a phase, dooming a rank) and hands over
//! values, never itself; nothing here reads a clock or shared state.
//!
//! Where the two callers disagree today the disagreement is an *argument*,
//! named drift (a)–(g) here and in the README's "Observability", so that it
//! can be collapsed with the number it moves.

use std::ops::DerefMut;

use mutls_adaptive::{ForkDecision, Governor, GrainAction, GrainController, SiteId, SiteOutcome};
use mutls_membuf::{RegionProfile, RollbackReason, SpecFailure};
use mutls_trace::{DenyPolicy, DoomSource, PlanArm, ValidateOutcome};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::fork_model::ForkModel;
use crate::ledger::Point;
use crate::manager::RunTotals;
use crate::stats::{Phase, ThreadStats};

/// The thread asking to fork, as the forking models see it (paper §II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forker {
    /// It is itself speculative.
    pub speculative: bool,
    /// Some speculative thread is in flight.
    pub any_in_flight: bool,
    /// It is the most recently speculated thread still in flight.
    pub latest: bool,
}

/// D1, the model rule and then the CPU: `scan` looks for an idle CPU only
/// if `model` lets `forker` fork, and the one evaluation that denies also
/// says why.  With nothing in flight the non-speculative thread is
/// (vacuously) the most speculative.
pub fn claim_cpu<Cpu>(
    model: ForkModel,
    forker: Forker,
    scan: impl FnOnce() -> Option<Cpu>,
) -> Result<Cpu, DenyPolicy> {
    let most_speculative = if forker.any_in_flight {
        forker.latest
    } else {
        !forker.speculative
    };
    if !model.allows_fork(forker.speculative, most_speculative) {
        return Err(DenyPolicy::Model);
    }
    scan().ok_or(DenyPolicy::NoCpu)
}

/// D1, fork admission in the order the rules apply: a speculative thread
/// re-executing after a rollback is `pinned` inline and the governor never
/// hears of it; a site the governor throttles never reaches `acquire` (the
/// caller's [`claim_cpu`] and what it charges around it), which runs under
/// the model the governor chose.  `Err` is the rule that denied and the
/// model in force when it did.
pub fn admit_fork<Cpu>(
    pinned: bool,
    governor: &Governor,
    site: SiteId,
    requested: ForkModel,
    acquire: impl FnOnce(ForkModel) -> Result<Cpu, DenyPolicy>,
) -> Result<(ForkModel, Cpu), (DenyPolicy, ForkModel)> {
    if pinned {
        return Err((DenyPolicy::Reexec, requested));
    }
    let ForkDecision::Allow(model) = governor.decide(site, requested) else {
        return Err((DenyPolicy::Governor, requested));
    };
    acquire(model)
        .map(|cpu| (model, cpu))
        .map_err(|policy| (policy, model))
}

/// What a join knows of the child it consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinFacts {
    /// The thread was dead before the join validated anything: natively it
    /// stopped `Failed`; in the replay something doomed it and no retry
    /// repaired it, or the injected draw hit — taken *before* validation
    /// there, after it natively (drift (g)).
    pub dead: Option<SpecFailure>,
    /// Every read validated, possibly after a value-predict retry.
    pub valid: bool,
    /// The conflict is range-only: every conflicting word still holds its
    /// first-read value (suspected false sharing).
    pub suspect: bool,
    /// A value-predict retry repaired the validation.
    pub retried: bool,
    /// Some read passed precisely, through the version rings.  Drift (a):
    /// natively if this join's validation did, in the replay if the fiber
    /// ever did.
    pub precise_pass: bool,
}

/// What the join does with the child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinVerdict {
    /// How validation ended.
    pub outcome: ValidateOutcome,
    /// `Some` when the child rolls back: why, and the arm that repairs it.
    pub rollback: Option<(SpecFailure, PlanArm)>,
}

/// D2, the verdict of a join (paper §IV-F, the README's recovery ladder).
///
/// Drift (b), `classify_dead_conflicts`: a thread that arrives dead of a
/// conflict-class reason is `Failed` with no recovery arm natively
/// (`false`: the ladder never ran), and classified like a conflict the
/// join found itself in the replay (`true`).
pub fn join_verdict(facts: JoinFacts, classify_dead_conflicts: bool) -> JoinVerdict {
    // Only a read conflict has readers to doom, and can be a false one.
    let conflict = |reason| {
        let read = reason == SpecFailure::ReadConflict;
        let (outcome, arm) = match (read, facts.suspect) {
            (true, true) => (ValidateOutcome::ConservativeDoom, PlanArm::DoomSet),
            (true, false) => (ValidateOutcome::Conflict, PlanArm::DoomSet),
            (false, _) => (ValidateOutcome::Conflict, PlanArm::None),
        };
        (outcome, Some((reason, arm)))
    };
    let (outcome, rollback) = match facts.dead {
        Some(reason)
            if classify_dead_conflicts
                && RollbackReason::from(reason) == RollbackReason::Conflict =>
        {
            conflict(reason)
        }
        Some(reason) => (ValidateOutcome::Failed, Some((reason, PlanArm::None))),
        None if !facts.valid => conflict(SpecFailure::ReadConflict),
        None if facts.retried => (ValidateOutcome::Retried, None),
        None if facts.precise_pass => (ValidateOutcome::PrecisePass, None),
        None => (ValidateOutcome::Clean, None),
    };
    JoinVerdict { outcome, rollback }
}

/// A thread whose fate is known, as its fork site will remember it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retirement {
    /// The fork site it was launched from.
    pub site: SiteId,
    /// The model it was launched under.
    pub model: ForkModel,
    /// `Ok(retried)` for a commit, the blamed failure for a rollback.
    /// Drift (f): a cascaded discard is blamed on `Cascaded` natively, on
    /// whatever doomed the fiber first in the replay.
    pub fate: Result<bool, SpecFailure>,
    /// The rollback is suspected false sharing.  Drift (c): natively "the
    /// thread ever counted a suspect", in the replay "a range-only read
    /// conflict doomed it".
    pub false_sharing: bool,
    /// The live grain its traffic ran at.  Drift (d): at its first written
    /// (else read) address in buffer order natively, at the lowest one in
    /// the replay.
    pub grain_log2: u32,
}

/// D3, retirement: a rolled-back thread's work becomes wasted work, the
/// site profile hears the outcome, the run's totals take the statistics,
/// and the caller gets the `Retired` point to write down.
pub fn retire(
    stats: &mut ThreadStats,
    thread: Retirement,
    governor: &Governor,
    totals: &mut RunTotals,
) -> Point {
    let stall = stats.get(Phase::Idle);
    let (outcome, cycles) = match thread.fate {
        Ok(retried) => {
            let work = stats.get(Phase::Work);
            let committed = SiteOutcome::committed(work, stall, thread.model);
            (committed.with_retry(retried), work)
        }
        Err(reason) => {
            stats.mark_work_wasted();
            let wasted = stats.get(Phase::WastedWork);
            let rolled_back = SiteOutcome::rolled_back(reason, wasted, stall, thread.model);
            (rolled_back.with_false_sharing(thread.false_sharing), wasted)
        }
    };
    governor.record_outcome(thread.site, &outcome.with_grain(thread.grain_log2));
    totals.fold(stats, thread.fate);
    Point::Retired {
        committed: thread.fate.is_ok(),
        cycles,
        total: stats.total(),
    }
}

/// D4, the cadence: whether the `events`-th commit/validate event (counted
/// from 1) is one the grain controller ticks on.
pub fn grain_tick_due(events: u64, tick_commits: u64) -> bool {
    events.is_multiple_of(tick_commits.max(1))
}

/// D4, one grain-controller tick over `profiles`.  `apply` regrains one
/// region and dooms its readers the caller's way, returning the region's
/// previous grain and the number doomed; returned is what the control
/// plane's lane hears, in order: per action `Regrained` then `Doomed`, and
/// `GrainTicked` last.
///
/// Drift (e), `report_idle`: a tick that issued nothing is reported
/// natively (`true`) and silent in the replay (`false`).
pub fn grain_tick(
    controller: &mut GrainController,
    profiles: &[RegionProfile],
    report_idle: bool,
    mut apply: impl FnMut(GrainAction) -> (u32, u64),
) -> Vec<Point> {
    let actions = controller.tick(profiles);
    let mut points = Vec::with_capacity(2 * actions.len() + 1);
    for &action in &actions {
        let (region, to) = (action.region, action.new_grain_log2);
        let (from, victims) = apply(action);
        points.push(Point::Regrained { region, from, to });
        let source = DoomSource::Regrain;
        points.push(Point::Doomed { source, victims });
    }
    if report_idle || !actions.is_empty() {
        points.push(Point::GrainTicked(actions.len() as u32));
    }
    points
}

/// D5, the injected draw (paper §V-D): whether an otherwise valid join is
/// rolled back by injection — never at `p = 0`, always at `p = 1`, and only
/// in between is `rng` asked for, and drawn from.
pub fn injected_draw<R: DerefMut<Target = SmallRng>>(p: f64, rng: impl FnOnce() -> R) -> bool {
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng().gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::manager::ThreadManager;
    use mutls_adaptive::{GovernorConfig, GrainControlConfig, PolicyKind};
    use mutls_membuf::{PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2};
    use rand::SeedableRng;
    use ForkModel::{InOrder, Mixed, OutOfOrder};

    const BOTH: [bool; 2] = [false, true];

    /// The model rule over `ForkModel::ALL` × forker speculative × anything
    /// in flight × forker is the latest: all 24 rows.  An allowed fork is
    /// denied only for want of a CPU; a forbidden one never scans.
    #[test]
    fn the_model_rule_enumerated() {
        // Whom in-order lets fork: rank 0 while nothing is in flight, else
        // the latest thread — as (speculative, any in flight, latest).
        let in_order = [
            (false, false, false),
            (false, false, true),
            (false, true, true),
            (true, true, true),
        ];
        let mut rows = 0;
        for model in ForkModel::ALL {
            for bits in 0..8 {
                let [speculative, any_in_flight, latest] = [0, 1, 2].map(|b| bits >> b & 1 == 1);
                let forker = Forker {
                    speculative,
                    any_in_flight,
                    latest,
                };
                let allowed = match model {
                    Mixed => true,
                    OutOfOrder => !speculative,
                    InOrder => in_order.contains(&(speculative, any_in_flight, latest)),
                };
                let mut scanned = false;
                let verdict = claim_cpu(model, forker, || {
                    scanned = true;
                    Some(7)
                });
                let expected = if allowed {
                    Ok(7)
                } else {
                    Err(DenyPolicy::Model)
                };
                assert_eq!(verdict, expected, "{model} {forker:?}");
                assert_eq!(scanned, allowed, "{model} {forker:?}: scanned");
                let why = if allowed {
                    DenyPolicy::NoCpu
                } else {
                    DenyPolicy::Model
                };
                let denied = claim_cpu(model, forker, || None::<u32>);
                assert_eq!(denied, Err(why), "{model} {forker:?}");
                rows += 1;
            }
        }
        assert_eq!(rows, 24);
    }

    /// The rule on a real manager, four CPUs: each step forks from rank 0
    /// (`None`) or from the thread the `i`-th granted step launched.
    #[test]
    fn the_model_rule_drives_a_manager() {
        use DenyPolicy::{Model, NoCpu};
        type Step = (Option<usize>, Result<(), DenyPolicy>);
        let (ok, no) = (Ok(()), Err(Model));
        let scripts: [(ForkModel, &[Step]); 3] = [
            // A speculative child may not fork; rank 0 keeps forking.
            (OutOfOrder, &[(None, ok), (Some(0), no), (None, ok)]),
            // Rank 0 stops being the most speculative at its first fork,
            // and each thread at its own.
            (
                InOrder,
                &[
                    (None, ok),
                    (None, no),
                    (Some(0), ok),
                    (Some(0), no),
                    (Some(1), ok),
                ],
            ),
            // Anybody forks, until the CPUs run out.
            (
                Mixed,
                &[
                    (None, ok),
                    (Some(0), ok),
                    (Some(1), ok),
                    (None, ok),
                    (Some(2), Err(NoCpu)),
                ],
            ),
        ];
        for (model, steps) in scripts {
            let m = ThreadManager::new(RuntimeConfig::with_cpus(4).memory_bytes(1 << 16));
            let mut launched = Vec::new();
            for (step, &(forker, expected)) in steps.iter().enumerate() {
                let forker = forker.map_or(0, |i| launched[i]);
                let got = m.try_acquire_cpu(forker, model);
                assert_eq!(got.map(drop), expected, "{model}, step {step}");
                launched.extend(got);
            }
            assert_eq!(m.active_speculations(), launched.len());
        }
    }

    /// D1's ordering: a pinned re-execution is never shown to the governor,
    /// and a governor denial never reaches the CPU scan.
    #[test]
    fn admission_asks_in_order_and_stops_at_the_first_denial() {
        let site = 3;
        let governor = Governor::new(GovernorConfig::with_policy(PolicyKind::Throttle));
        let no_scan = |_| -> Result<u32, DenyPolicy> { panic!("the scan was reached") };

        let pinned = admit_fork(true, &governor, site, InOrder, no_scan);
        assert_eq!(pinned, Err((DenyPolicy::Reexec, InOrder)));
        assert!(governor.snapshot().is_empty(), "the governor was asked");

        // Granted, or denied by the scan, under the model the governor chose.
        assert_eq!(
            admit_fork(false, &governor, site, Mixed, Ok),
            Ok((Mixed, Mixed))
        );
        let no_cpu = |_| Err::<u32, _>(DenyPolicy::NoCpu);
        let denied = admit_fork(false, &governor, site, Mixed, no_cpu);
        assert_eq!(denied, Err((DenyPolicy::NoCpu, Mixed)));

        // A site that only rolls back is throttled before any scan.
        for _ in 0..8 {
            let conflict = SiteOutcome::rolled_back(SpecFailure::ReadConflict, 100, 0, Mixed);
            governor.record_outcome(site, &conflict);
        }
        let throttled = admit_fork(false, &governor, site, OutOfOrder, no_scan);
        assert_eq!(throttled, Err((DenyPolicy::Governor, OutOfOrder)));
        assert_eq!(governor.snapshot()[0].throttled, 1);
    }

    /// D2 over every combination of facts, at both settings of drift (b)
    /// and both values of drift (a)'s `precise_pass`.  A row is the death,
    /// a pattern over (valid, suspect, retried, precise pass, classify dead
    /// conflicts) with `None` for "either", and the verdict; exactly one
    /// row matches each combination.
    #[test]
    fn the_join_verdict_enumerated() {
        use PlanArm::{DoomSet, None as NoArm};
        use SpecFailure::*;
        use ValidateOutcome::*;
        type Rollback = Option<(SpecFailure, PlanArm)>;
        type Row = (
            Option<SpecFailure>,
            [Option<bool>; 5],
            ValidateOutcome,
            Rollback,
        );
        let (t, f, x) = (Some(true), Some(false), None);
        let doom_set = Some((ReadConflict, DoomSet));
        let local = LocalValidationFailed;
        let mut rows: Vec<Row> = vec![
            // Alive and valid: how it validated.  (A retry starts from a
            // suspect conflict, so `suspect` may be set.)
            (None, [t, x, t, x, x], Retried, None),
            (None, [t, x, f, t, x], PrecisePass, None),
            (None, [t, x, f, f, x], Clean, None),
            // Alive and invalid: the ladder's second rung.
            (None, [f, t, x, x, x], ConservativeDoom, doom_set),
            (None, [f, f, x, x, x], Conflict, doom_set),
            // Dead of a read conflict: drift (b).
            (
                Some(ReadConflict),
                [x, x, x, x, f],
                Failed,
                Some((ReadConflict, NoArm)),
            ),
            (
                Some(ReadConflict),
                [x, t, x, x, t],
                ConservativeDoom,
                doom_set,
            ),
            (Some(ReadConflict), [x, f, x, x, t], Conflict, doom_set),
            // The other conflict-class reason has no readers to doom.
            (Some(local), [x, x, x, x, f], Failed, Some((local, NoArm))),
            (Some(local), [x, x, x, x, t], Conflict, Some((local, NoArm))),
        ];
        // Dead of anything else: discarded unvalidated, whoever asks.
        let others = [
            BufferOverflow,
            LocalBufferOverflow,
            UnregisteredAddress,
            Injected,
            Cascaded,
            NoSync,
        ];
        rows.extend(others.map(|reason| (Some(reason), [x; 5], Failed, Some((reason, NoArm)))));
        let deaths = [None, Some(ReadConflict), Some(local)];
        for dead in deaths.into_iter().chain(others.map(Some)) {
            for bits in 0..32u32 {
                let given = [0, 1, 2, 3, 4].map(|bit| bits >> bit & 1 == 1);
                let [valid, suspect, retried, precise_pass, classify] = given;
                let facts = JoinFacts {
                    dead,
                    valid,
                    suspect,
                    retried,
                    precise_pass,
                };
                let mut matching = rows.iter().filter(|(death, pattern, ..)| {
                    let fits = |(p, g): (&Option<bool>, bool)| p.is_none_or(|p| p == g);
                    *death == dead && pattern.iter().zip(given).all(fits)
                });
                let &(.., outcome, rollback) = matching.next().expect("a row for every case");
                assert!(matching.next().is_none(), "two rows for {facts:?}");
                let verdict = join_verdict(facts, classify);
                let expected = JoinVerdict { outcome, rollback };
                assert_eq!(verdict, expected, "{facts:?}, classify {classify}");
            }
        }
    }

    /// D3: committed / rolled back × false sharing × retried — what a
    /// recording governor, the totals and the `Retired` point are handed.
    #[test]
    fn retirement_tells_the_site_the_totals_and_the_ledger() {
        for (committed, flag) in BOTH.iter().flat_map(|&c| BOTH.map(|f| (c, f))) {
            let governor = Governor::new(GovernorConfig::default());
            let mut totals = RunTotals::default();
            let mut stats = ThreadStats::new();
            stats.add(Phase::Work, 70);
            stats.add(Phase::Idle, 20);
            stats.add(Phase::Validation, 10);
            let conflict = SpecFailure::ReadConflict;
            let thread = Retirement {
                site: 9,
                model: InOrder,
                fate: if committed { Ok(flag) } else { Err(conflict) },
                false_sharing: flag,
                grain_log2: 6,
            };
            let point = retire(&mut stats, thread, &governor, &mut totals);
            let (cycles, total) = (70, 100);
            let retired = Point::Retired {
                committed,
                cycles,
                total,
            };
            assert_eq!(point, retired);
            let (kept, wasted) = if committed { (70, 0) } else { (0, 70) };
            assert_eq!(stats.get(Phase::Work), kept);
            assert_eq!(stats.get(Phase::WastedWork), wasted);

            let site = &governor.snapshot()[0];
            let (commits, rollbacks) = (committed as u64, !committed as u64);
            assert_eq!((site.site, site.grain_log2, site.stall), (9, 6, 20));
            assert_eq!(
                (site.commits, site.rollbacks, site.conflicts),
                (commits, rollbacks, rollbacks)
            );
            assert_eq!((site.committed_work, site.wasted_work), (kept, wasted));
            // Each flag is heard on its own side only.
            assert_eq!(site.retries, (committed && flag) as u64);
            assert_eq!(site.false_sharing, (!committed && flag) as u64);

            assert_eq!(totals.speculative, stats);
            assert_eq!((totals.committed, totals.rolled_back), (commits, rollbacks));
            assert_eq!(totals.retried, (committed && flag) as u64);
            assert_eq!(
                totals.by_reason[RollbackReason::Conflict.index()],
                rollbacks
            );
        }
    }

    /// D4: the cadence, and what the control plane's lane hears of a tick
    /// that regrains and of one that does not — drift (e) either way.
    #[test]
    fn the_grain_tick_reports_each_regrain_then_itself() {
        assert!((1..=12).all(|n| grain_tick_due(n, 4) == (n % 4 == 0)));
        assert!(
            grain_tick_due(5, 1) && grain_tick_due(5, 0),
            "0 ticks like 1"
        );

        let region = |region, conflicts| RegionProfile {
            region,
            grain_log2: PAGE_GRAIN_LOG2,
            stamps: 1,
            conflicts,
            false_sharing: 0,
            retries: 0,
        };
        let profiles = [region(2, 3), region(5, 0)];
        let mut controller = GrainController::new(GrainControlConfig::adaptive(), WORD_GRAIN_LOG2);
        let mut applied = Vec::new();
        let points = grain_tick(&mut controller, &profiles, false, |action| {
            applied.push(action.region);
            (PAGE_GRAIN_LOG2, 4)
        });
        assert_eq!(applied, [2], "only the contended region splits");
        let (source, victims) = (DoomSource::Regrain, 4);
        let [Point::Regrained {
            region: 2,
            from,
            to,
        }, doomed, Point::GrainTicked(1)] = points[..]
        else {
            panic!("{points:?}");
        };
        assert!(from == PAGE_GRAIN_LOG2 && to < from);
        assert_eq!(doomed, Point::Doomed { source, victims });

        // Nothing moved since: an idle tick.
        let no_apply = |_| -> (u32, u64) { panic!("nothing to apply") };
        assert_eq!(grain_tick(&mut controller, &profiles, false, no_apply), []);
        let idle = grain_tick(&mut controller, &profiles, true, no_apply);
        assert_eq!(idle, [Point::GrainTicked(0)]);
    }

    /// D5: the extremes never ask for the generator; in between the draw is
    /// the seeded generator's, in sequence.
    #[test]
    fn the_injected_draw_at_the_extremes_and_seeded_in_between() {
        let no_rng = || -> &mut SmallRng { panic!("p decides alone") };
        assert!(!injected_draw(0.0, no_rng));
        assert!(injected_draw(1.0, no_rng));

        let (mut ours, mut reference) = (SmallRng::seed_from_u64(7), SmallRng::seed_from_u64(7));
        let draws: Vec<bool> = (0..1000)
            .map(|_| injected_draw(0.3, || &mut ours))
            .collect();
        assert!(draws.iter().all(|&hit| hit == reference.gen_bool(0.3)));
        let hits = draws.iter().filter(|&&hit| hit).count();
        assert!((200..400).contains(&hits), "{hits} of 1000 at p = 0.3");
    }
}
