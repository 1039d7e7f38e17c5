//! Adaptive governor on the native runtime: run nqueen with 100% injected
//! rollbacks under the Static and Throttle policies and compare how much
//! speculation each launches.  With throttling the pathological site is
//! suppressed after a few samples, yet the result stays correct because
//! the parent executes the continuations inline.
//!
//! Run with `cargo run --release --example adaptive_governor`.

use mutls_adaptive::{GovernorConfig, PolicyKind};
use mutls_runtime::{Runtime, RuntimeConfig};
use mutls_workloads::{
    arena_bytes, checksum, reference_checksum, run_speculative, setup, site_label, Scale,
    WorkloadKind,
};

fn run(policy: PolicyKind) {
    let kind = WorkloadKind::Nqueen;
    let runtime = Runtime::new(
        RuntimeConfig::with_cpus(2)
            .memory_bytes(arena_bytes(kind, Scale::Tiny))
            .rollback_probability(1.0)
            .governor(GovernorConfig::with_policy(policy)),
    );
    let memory = runtime.memory();
    let data = setup(kind, Scale::Tiny, &memory);
    let (_, report) = runtime.run(|ctx| run_speculative(ctx, &data));
    let correct = checksum(&memory, &data) == reference_checksum(kind, Scale::Tiny);
    println!("policy = {policy}");
    println!("  result correct       = {correct}");
    println!(
        "  committed / rolled   = {} / {}",
        report.committed_threads, report.rolled_back_threads
    );
    println!("  throttled forks      = {}", report.throttled_forks());
    for site in &report.sites {
        let name = site_label(site.site).unwrap_or("?");
        println!(
            "  site {name}: {} forks, {} throttled, rollback rate {:.2}",
            site.forks, site.throttled, site.rollback_rate
        );
    }
    assert!(
        correct,
        "speculative result must match the sequential baseline"
    );
}

fn main() {
    println!("nqueen (tiny) with 100% injected rollbacks on 2 speculative CPUs\n");
    run(PolicyKind::Static);
    run(PolicyKind::Throttle);
}
