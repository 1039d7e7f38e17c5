//! Integration tests of the adaptive speculation governor across the
//! simulator and the native runtime: a pathological always-conflicting
//! fork site must be suppressed while a clean site keeps speculating, the
//! throttle policy must reduce rolled-back work on rollback-heavy
//! workloads, and the static policy must reproduce ungoverned behaviour
//! exactly.

use std::sync::Arc;

use mutls::adaptive::{GovernorConfig, PolicyKind};
use mutls::membuf::GlobalMemory;
use mutls::runtime::{task, Runtime, RuntimeConfig, TlsContext};
use mutls::simcpu::{record_region, simulate, RecordContext, Recording, SimConfig};
use mutls::workloads::{
    arena_bytes, checksum, md, reference_checksum, run_speculative, setup, Scale, WorkloadKind,
};

/// Fork-site IDs of the synthetic two-site workload.
const SITE_BAD: u32 = 900;
const SITE_GOOD: u32 = 901;

/// Build a recording with two fork sites per iteration: `SITE_BAD`'s child
/// always reads a cell the parent writes right afterwards (a guaranteed
/// read conflict), while `SITE_GOOD`'s child works on a private cell.
fn two_site_recording(iterations: usize) -> Recording {
    let memory = Arc::new(GlobalMemory::new(1 << 20));
    let shared = memory.alloc::<i64>(2);
    let private = memory.alloc::<i64>(iterations);
    record_region(Arc::clone(&memory), move |ctx| {
        for i in 0..iterations {
            // Pathological site: the child reads `shared[0]`, which the
            // parent writes while the child is in flight.
            let bad = task(move |ctx: &mut RecordContext| {
                ctx.work(2_000)?;
                let v = ctx.load(&shared, 0)?;
                ctx.store(&shared, 1, v + 1)?;
                ctx.barrier()
            });
            let bad_handle = ctx.fork(SITE_BAD, bad)?;
            ctx.work(2_000)?;
            ctx.store(&shared, 0, i as i64)?;
            ctx.join(bad_handle)?;

            // Clean site: the child owns its output cell outright.
            let good = task(move |ctx: &mut RecordContext| {
                ctx.work(2_000)?;
                ctx.store(&private, i, i as i64 * 3)?;
                ctx.barrier()
            });
            let good_handle = ctx.fork(SITE_GOOD, good)?;
            ctx.work(2_000)?;
            ctx.join(good_handle)?;
        }
        Ok(())
    })
}

fn governed(policy: PolicyKind) -> SimConfig {
    SimConfig {
        num_cpus: 8,
        fork_model: None,
        rollback_probability: 0.0,
        seed: 11,
        cost: Default::default(),
        governor: GovernorConfig::with_policy(policy),
        ..Default::default()
    }
}

#[test]
fn pathological_site_is_suppressed_while_clean_site_keeps_speculating() {
    let recording = two_site_recording(64);

    let throttled = simulate(&recording, governed(PolicyKind::Throttle));
    let sites = &throttled.report.sites;
    let bad = sites
        .iter()
        .find(|s| s.site == SITE_BAD)
        .expect("bad site profiled");
    let good = sites
        .iter()
        .find(|s| s.site == SITE_GOOD)
        .expect("good site profiled");

    // The conflicting site is mostly denied after the warm-up samples...
    assert!(
        bad.throttled > bad.forks,
        "bad site should be mostly suppressed: {} forks vs {} throttled",
        bad.forks,
        bad.throttled
    );
    assert!(
        bad.rollback_rate > 0.5,
        "bad site rate = {}",
        bad.rollback_rate
    );
    // ...while the clean site is never throttled and keeps committing.
    assert_eq!(good.throttled, 0, "clean site must not be throttled");
    assert!(good.commits > 32, "clean site commits = {}", good.commits);

    // And throttling pays: less work is rolled back than under Static.
    let staticp = simulate(&recording, governed(PolicyKind::Static));
    assert!(
        throttled.report.wasted_work() < staticp.report.wasted_work() / 2,
        "wasted work: throttle {} vs static {}",
        throttled.report.wasted_work(),
        staticp.report.wasted_work()
    );
    assert!(
        throttled.report.rolled_back_threads < staticp.report.rolled_back_threads,
        "rolled back: throttle {} vs static {}",
        throttled.report.rolled_back_threads,
        staticp.report.rolled_back_threads
    );
}

#[test]
fn throttle_reduces_rolled_back_work_on_a_rollback_heavy_workload() {
    // md at scaled size with a 40% injected rollback probability is the
    // harness's rollback-heavy configuration.
    let kind = WorkloadKind::Md;
    let memory = Arc::new(GlobalMemory::new(arena_bytes(kind, Scale::Scaled)));
    let data = setup(kind, Scale::Scaled, &memory);
    let recording = record_region(memory, |ctx| run_speculative(ctx, &data));

    let run = |policy: PolicyKind| {
        simulate(
            &recording,
            SimConfig {
                num_cpus: 16,
                fork_model: None,
                rollback_probability: 0.4,
                seed: 0xAB5C155A,
                cost: Default::default(),
                governor: GovernorConfig::with_policy(policy),
                ..Default::default()
            },
        )
    };
    let staticp = run(PolicyKind::Static);
    let throttle = run(PolicyKind::Throttle);
    assert!(
        throttle.report.wasted_work() * 2 < staticp.report.wasted_work(),
        "throttle should at least halve wasted work: {} vs {}",
        throttle.report.wasted_work(),
        staticp.report.wasted_work()
    );
    assert!(
        throttle.report.rolled_back_threads < staticp.report.rolled_back_threads,
        "throttle should reduce rollbacks: {} vs {}",
        throttle.report.rolled_back_threads,
        staticp.report.rolled_back_threads
    );
    assert!(throttle.report.throttled_forks() > 0);
    // The profile table names the md force-phase site.
    let site = md::SITE_FORCE_CHUNK;
    assert!(throttle
        .report
        .sites
        .iter()
        .any(|s| s.site == site && s.throttled > 0));
}

#[test]
fn static_policy_reproduces_ungoverned_simulation_exactly() {
    let recording = two_site_recording(32);
    // `SimConfig::default()` leaves the governor at its default (Static);
    // an explicit Static governor must not change a single cycle or count.
    let default_run = simulate(&recording, SimConfig::with_cpus(8));
    let static_run = simulate(
        &recording,
        SimConfig::with_cpus(8).governor(GovernorConfig::with_policy(PolicyKind::Static)),
    );
    assert_eq!(default_run.parallel_cycles, static_run.parallel_cycles);
    assert_eq!(
        default_run.report.committed_threads,
        static_run.report.committed_threads
    );
    assert_eq!(
        default_run.report.rolled_back_threads,
        static_run.report.rolled_back_threads
    );
    assert_eq!(default_run.report.sites, static_run.report.sites);
    assert_eq!(static_run.report.throttled_forks(), 0);
}

#[test]
fn native_runtime_is_correct_and_throttles_under_forced_rollbacks() {
    let kind = WorkloadKind::Nqueen;
    let expected = reference_checksum(kind, Scale::Tiny);
    let runtime = Runtime::new(
        RuntimeConfig::with_cpus(2)
            .memory_bytes(arena_bytes(kind, Scale::Tiny))
            .rollback_probability(1.0)
            .governor(GovernorConfig::with_policy(PolicyKind::Throttle)),
    );
    let memory = runtime.memory();
    let data = setup(kind, Scale::Tiny, &memory);
    let (_, report) = runtime.run(|ctx| run_speculative(ctx, &data));
    // Rollback every join -> the site's rate hits 1.0 and the governor
    // suppresses it; the result must still be correct because the parent
    // executes the continuations inline.
    assert_eq!(
        checksum(&memory, &data),
        expected,
        "throttling broke the result"
    );
    assert!(
        report.throttled_forks() > 0,
        "expected throttled forks, sites: {:?}",
        report.sites
    );
    assert!(!report.sites.is_empty());
}
