//! The protocol: what the paper's rules decide, said once.
//!
//! Who may fork under which model (§IV-B), what a join makes of a validated
//! or a conflicting child (§IV-F), what a retired thread leaves at its fork
//! site, when an injected rollback is drawn, where a range is split and
//! whether a running child synchronizes early (§IV-E/H) are *decisions*:
//! functions of a handful
//! of values.  The native runtime takes them on the wall clock, the
//! simulator's replay on the virtual one, and both call the functions below
//! — as both call [`ledger::observe`](crate::ledger::observe) for what is
//! written down.  (The replay still records `fork_range` as the grain-1
//! chain and never asks [`forker_share`], ROADMAP item 4, and synchronizes
//! every joiner without asking [`sync_pays`], item 14.)
//! The caller owns *when* and *how* (acquiring a CPU, reading a buffer or a
//! fiber's footprint, charging a phase, dooming a rank) and hands over
//! values, never itself; nothing here reads a clock or shared state.  What
//! the two still do differently is *how* they gather a fact (README
//! "Observability"), never what a fact decides.

use std::ops::DerefMut;

use mutls_adaptive::{ForkDecision, Governor, SiteId, SiteOutcome};
use mutls_membuf::SpecFailure;
use mutls_trace::{DenyPolicy, PlanArm, ValidateOutcome};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::fork_model::ForkModel;
use crate::ledger::Point;
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
    /// The thread was dead before the join validated anything — it stopped
    /// on a doom no retry repaired, or overflowed — or is discarded after a
    /// validation that passed: the injected draw hit, or the parent could
    /// not absorb it.
    pub dead: Option<SpecFailure>,
    /// Every read validated, possibly after a value-predict retry.
    pub valid: bool,
    /// A value-predict retry repaired the validation.
    pub retried: bool,
    /// Some read passed precisely, through the version rings, at the join
    /// or in flight.
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
/// A thread that arrives dead is `Failed` with no recovery arm, whatever
/// killed it: the ladder never ran.
pub fn join_verdict(facts: JoinFacts) -> JoinVerdict {
    let (outcome, rollback) = match facts.dead {
        Some(reason) => (ValidateOutcome::Failed, Some((reason, PlanArm::None))),
        // What the ladder could not repair is a conflict: its re-execution
        // has readers to doom.
        None if !facts.valid => (
            ValidateOutcome::Conflict,
            Some((SpecFailure::ReadConflict, PlanArm::DoomSet)),
        ),
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
    /// `Ok(retried)` for a commit, the blamed failure for a rollback —
    /// `Cascaded` for a discard without a join of its own.
    pub fate: Result<bool, SpecFailure>,
}

/// D3, retirement: a rolled-back thread's work becomes wasted work, the
/// site profile hears the outcome, the speculative path's statistics take
/// the thread's, and the caller gets the `Retired` point to write down.
pub fn retire(
    stats: &mut ThreadStats,
    thread: Retirement,
    governor: &Governor,
    speculative: &mut ThreadStats,
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
            (rolled_back, wasted)
        }
    };
    governor.record_outcome(thread.site, &outcome);
    speculative.merge(stats);
    Point::Retired {
        committed: thread.fate.is_ok(),
        cycles,
        total: stats.total(),
    }
}

/// What one `fork_range` iteration of a fork site costs on each side of a
/// split, as sums: bodies the non-speculative thread ran (`crit_*`), and
/// bodies speculative tasks ran and then committed (`spec_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Price {
    /// Nanoseconds of bodies run at rank 0.
    pub crit_ns: u64,
    /// Bodies run at rank 0.
    pub crit_iters: u64,
    /// Nanoseconds of bodies run speculatively by committed tasks.
    pub spec_ns: u64,
    /// Bodies run speculatively by committed tasks.
    pub spec_iters: u64,
}

impl Price {
    /// One rank-0 body of `ns` nanoseconds.
    pub fn crit(ns: u64) -> Self {
        Price {
            crit_ns: ns,
            crit_iters: 1,
            ..Price::default()
        }
    }

    /// One speculative body of `ns` nanoseconds.
    pub fn spec(ns: u64) -> Self {
        Price {
            spec_ns: ns,
            spec_iters: 1,
            ..Price::default()
        }
    }

    /// Both books summed.
    pub fn add(&mut self, other: Price) {
        self.crit_ns += other.crit_ns;
        self.crit_iters += other.crit_iters;
        self.spec_ns += other.spec_ns;
        self.spec_iters += other.spec_iters;
    }

    /// `(c, s)`, in proportion: rank 0's and the speculative side's mean ns
    /// per iteration, cross-multiplied so that no division rounds — and
    /// `(1, 1)`, equal, until both sides have a sample.
    fn sides(self) -> (u128, u128) {
        if self.crit_ns == 0 || self.spec_ns == 0 {
            return (1, 1);
        }
        let c = u128::from(self.crit_ns) * u128::from(self.spec_iters);
        let s = u128::from(self.spec_ns) * u128::from(self.crit_iters);
        (c, s)
    }
}

/// D5, the split of a range: of the `len ≥ 2` iterations a forker has left
/// when it forks the rest onto one of `cpus` speculative CPUs, the ones it
/// keeps — `len·s / (cpus·c + s)`, at least one and never all, where `c` is
/// rank 0's and `s` the speculative side's price per iteration.  Guided
/// self-scheduling weighted by price: at equal price, one part in
/// (`cpus + 1`) — half on one speculative CPU, one iteration (the chain)
/// once the CPUs outnumber half the iterations; with speculation 3× dearer
/// on one CPU, ¾.  By the CPUs the runtime *has*, not the ones idle at the
/// moment: deep in a dependent chain few are idle, and a forker that kept
/// more than one iteration there would put more of its stores underneath
/// its continuation's reads.
pub fn forker_share(len: usize, cpus: usize, price: Price) -> usize {
    let (c, s) = price.sides();
    let kept = len as u128 * s / (cpus as u128 * c + s);
    (kept as usize).clamp(1, len - 1)
}

/// A synchronization may cost at most one part in this many of the
/// fork→join region it overlaps (see [`sync_pays`]).
pub const SYNC_PAYBACK: u64 = 8;

/// D6, early synchronization (paper §IV-E/H): whether a running child that
/// buffers `entries` words takes its joiner's request — while two
/// hand-offs, a fixed `base` and `per_entry` per entry cost at most
/// 1/[`SYNC_PAYBACK`] of `region`, the joiner's own fork→join time.  Every
/// value but `entries` is in the caller's unit, as [`forker_share`] takes
/// a [`Price`].
pub fn sync_pays(entries: usize, handoff: u64, per_entry: u64, base: u64, region: u64) -> bool {
    let cost = 2 * handoff + base + entries as u64 * per_entry;
    SYNC_PAYBACK.saturating_mul(cost) <= region
}

/// D4, the injected draw (paper §V-D): whether a join whose validation
/// passed is rolled back by injection all the same — never at `p = 0`,
/// always at `p = 1`, and only in between is `rng` asked for, and drawn
/// from.  The caller draws only after a passing verdict.
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
    use mutls_adaptive::{GovernorConfig, PolicyKind};
    use rand::SeedableRng;
    use ForkModel::{InOrder, Mixed, OutOfOrder};

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

    /// D2 over every combination of facts.  A row is the death, a pattern
    /// over (valid, retried, precise pass) with `None` for
    /// "either", and the verdict; exactly one row matches each combination.
    #[test]
    fn the_join_verdict_enumerated() {
        use PlanArm::{DoomSet, None as NoArm};
        use SpecFailure::*;
        use ValidateOutcome::*;
        type Rollback = Option<(SpecFailure, PlanArm)>;
        type Row = (
            Option<SpecFailure>,
            [Option<bool>; 3],
            ValidateOutcome,
            Rollback,
        );
        let (t, f, x) = (Some(true), Some(false), None);
        let doom_set = Some((ReadConflict, DoomSet));
        let mut rows: Vec<Row> = vec![
            // Alive and valid: how it validated.
            (None, [t, t, x], Retried, None),
            (None, [t, f, t], PrecisePass, None),
            (None, [t, f, f], Clean, None),
            // Alive and invalid, a retry's overlay check included: what
            // the ladder could not repair.
            (None, [f, x, x], Conflict, doom_set),
        ];
        // Dead of anything, a conflict included: discarded unvalidated.
        let deaths = [
            ReadConflict,
            BufferOverflow,
            UnregisteredAddress,
            Injected,
            Cascaded,
            NoSync,
        ];
        rows.extend(deaths.map(|reason| (Some(reason), [x; 3], Failed, Some((reason, NoArm)))));
        for dead in std::iter::once(None).chain(deaths.map(Some)) {
            for bits in 0..8u32 {
                let given = [0, 1, 2].map(|bit| bits >> bit & 1 == 1);
                let [valid, retried, precise_pass] = given;
                let facts = JoinFacts {
                    dead,
                    valid,
                    retried,
                    precise_pass,
                };
                let mut matching = rows.iter().filter(|(death, pattern, ..)| {
                    let fits = |(p, g): (&Option<bool>, bool)| p.is_none_or(|p| p == g);
                    *death == dead && pattern.iter().zip(given).all(fits)
                });
                let &(.., outcome, rollback) = matching.next().expect("a row for every case");
                assert!(matching.next().is_none(), "two rows for {facts:?}");
                let expected = JoinVerdict { outcome, rollback };
                assert_eq!(join_verdict(facts), expected, "{facts:?}");
            }
        }
    }

    /// D3: committed, retried or not, and rolled back — what a recording
    /// governor, the speculative path and the `Retired` point are handed.
    #[test]
    fn retirement_tells_the_site_the_path_and_the_ledger() {
        let conflict = SpecFailure::ReadConflict;
        for fate in [Ok(false), Ok(true), Err(conflict)] {
            let governor = Governor::new(GovernorConfig::default());
            let mut speculative = ThreadStats::new();
            let mut stats = ThreadStats::new();
            stats.add(Phase::Work, 70);
            stats.add(Phase::Idle, 20);
            stats.add(Phase::Validation, 10);
            let thread = Retirement {
                site: 9,
                model: InOrder,
                fate,
            };
            let committed = fate.is_ok();
            let point = retire(&mut stats, thread, &governor, &mut speculative);
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
            assert_eq!((site.site, site.stall), (9, 20));
            assert_eq!(
                (site.commits, site.rollbacks, site.conflicts),
                (commits, rollbacks, rollbacks)
            );
            assert_eq!((site.committed_work, site.wasted_work), (kept, wasted));
            assert_eq!(site.retries, (fate == Ok(true)) as u64);

            assert_eq!(speculative, stats);
        }
    }

    /// D5: at equal price — no sample, or only one side's — the cut is one
    /// part in (CPUs + 1): half on one speculative CPU, the chain's single
    /// iteration once the CPUs outnumber half the iterations.  Priced, the
    /// forker keeps more the dearer speculation is (¾ at 3× on one CPU),
    /// and always a valid cut.
    #[test]
    fn the_forker_share_follows_the_price_and_is_always_a_cut() {
        let equal = [
            Price::default(),
            Price::crit(900),
            Price::spec(900),
            Price {
                crit_ns: 700,
                crit_iters: 7,
                spec_ns: 300,
                spec_iters: 3,
            },
        ];
        let priced = |c: u64, s: u64| Price {
            crit_ns: 4 * c,
            crit_iters: 4,
            spec_ns: 2 * s,
            spec_iters: 2,
        };
        for cpus in 1..=8 {
            for len in 2..=70 {
                for price in equal {
                    let kept = forker_share(len, cpus, price);
                    assert_eq!(kept, (len / (cpus + 1)).max(1), "{cpus} CPUs, {len}");
                    match cpus {
                        1 => assert_eq!(kept, len / 2),
                        _ if len < 2 * (cpus + 1) => assert_eq!(kept, 1),
                        _ => {}
                    }
                }
                if cpus == 1 && len % 4 == 0 {
                    assert_eq!(forker_share(len, 1, priced(10, 30)), len * 3 / 4);
                }
                // Monotone in s/c, from a hundred times cheaper to dearer.
                let mut last = 1;
                for ratio in [1, 10, 50, 99, 100, 101, 150, 300, 1_000, 10_000] {
                    let kept = forker_share(len, cpus, priced(100, ratio));
                    assert!(0 < kept && kept < len, "{cpus} CPUs: kept {kept} of {len}");
                    assert!(kept >= last, "{cpus} CPUs, {len}: s/c {ratio}% kept less");
                    last = kept;
                }
            }
        }
    }

    /// D6 over the rows the runtime meets, with the hand-off and per-entry
    /// cost it starts from, after one promotion measured 650 entries at
    /// 14 µs (21 ns each), and after a hand-off of 1 µs: synchronizing may
    /// cost an eighth of the region it overlaps, to the nanosecond.
    #[test]
    fn synchronizing_may_cost_an_eighth_of_the_region_it_overlaps() {
        use crate::context::{COLD_HANDOFF_NS, COLD_SYNC_ENTRY_NS, SYNC_BASE_NS};
        let cold = 2 * COLD_HANDOFF_NS + SYNC_BASE_NS;
        let measured = cold + 650 * 21;
        let warm = 2 * 1_000 + SYNC_BASE_NS;
        // (hand-off, ns per entry, entries, region, pays?, why)
        let rows = [
            (
                COLD_HANDOFF_NS,
                COLD_SYNC_ENTRY_NS,
                0,
                SYNC_PAYBACK * cold,
                true,
                "cold, at the bound",
            ),
            (
                COLD_HANDOFF_NS,
                COLD_SYNC_ENTRY_NS,
                0,
                SYNC_PAYBACK * cold - 1,
                false,
                "cold, below",
            ),
            (
                COLD_HANDOFF_NS,
                COLD_SYNC_ENTRY_NS,
                0,
                0,
                false,
                "forked and joined at once",
            ),
            (
                COLD_HANDOFF_NS,
                COLD_SYNC_ENTRY_NS,
                0,
                16_000_000,
                true,
                "compute_loop's chunks",
            ),
            (
                COLD_HANDOFF_NS,
                COLD_SYNC_ENTRY_NS,
                650,
                12_000,
                false,
                "md's chunks",
            ),
            (
                COLD_HANDOFF_NS,
                21,
                650,
                SYNC_PAYBACK * measured,
                true,
                "measured, at the bound",
            ),
            (
                COLD_HANDOFF_NS,
                21,
                650,
                SYNC_PAYBACK * measured - 1,
                false,
                "measured, below",
            ),
            (1_000, 21, 0, SYNC_PAYBACK * warm, true, "a fast hand-off"),
            (1_000, 21, 650, 12_000, false, "md's chunks, warmed up"),
        ];
        for (handoff, per_entry, entries, region, pays, why) in rows {
            let got = sync_pays(entries, handoff, per_entry, SYNC_BASE_NS, region);
            assert_eq!(got, pays, "{why}");
        }
    }

    /// D4: the extremes never ask for the generator; in between the draw is
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
